% Binary split that doubles: total cost is twice the work amount.
dbl(A, B) :- A = 0, B = 0.
dbl(A, B) :- A >= 1, A1 >= 0, A2 >= 0, A1 + A2 = A - 1,
             dbl(A1, B1), dbl(A2, B2), B = B1 + B2 + 2.
false :- A >= 1, dbl(A, B), B < 2*A.
