% Merge-style value split: a quantity of size A splits into two positive
% parts whose measures add up; the measure equals the size.
merged(A, B) :- A >= 0, A =< 1, B = A.
merged(A, B) :- A >= 2, A1 >= 1, A2 >= 1, A1 + A2 = A,
                merged(A1, B1), merged(A2, B2), B = B1 + B2.
false :- A >= 1, merged(A, B), B < A.
