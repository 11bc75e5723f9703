% Fibonacci with base B = A on [0, 1]: the hulls contain fractional points
% such as (1, 1/2), so the solver answers UNKNOWN at every level.
fib(A, B) :- A >= 0, A =< 1, B = A.
fib(A, B) :- A > 1, A2 = A - 2, fib(A2, B2),
             A1 = A - 1, fib(A1, B1), B = B1 + B2.
false :- A > 5, fib(A, B), B < A.
