% Safe: Y >= 2*X by induction, since a step gives Y >= 4*X - 2 >= 2*X for X >= 1.
s(X, Y) :- X >= 0, Y = 2*X.
s(X, Y) :- X >= 1, X1 = X - 1, s(X1, Y1), s(X1, Y2), Y = Y1 + Y2 + 2.
false :- s(X, Y), Y < 2*X.
