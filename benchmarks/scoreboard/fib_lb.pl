% Safe: fib(A) >= A - 1 for every A >= 0 (0, 1, 1, 2, 3, 5, ...), and for
% A >= 4 a step gives B >= (A - 2) + (A - 3) >= A - 1.
fib(A, B) :- A >= 0, A =< 1, B = A.
fib(A, B) :- A > 1, A2 = A - 2, fib(A2, B2),
             A1 = A - 1, fib(A1, B1), B = B1 + B2.
false :- A > 3, fib(A, B), B < A - 1.
