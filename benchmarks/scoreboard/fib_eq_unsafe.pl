% Unsafe: fib(2) = 1 < 2, a tree of dimension 1 whose two children are leaves.
fib(A, B) :- A >= 0, A =< 1, B = A.
fib(A, B) :- A > 1, A2 = A - 2, fib(A2, B2),
             A1 = A - 1, fib(A1, B1), B = B1 + B2.
false :- fib(A, B), A >= 2, B < A.
