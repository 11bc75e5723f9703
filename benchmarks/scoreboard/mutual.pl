% Safe: S >= N for both predicates, since a step gives S >= 2*(N - 1) + 1 >= N.
e(N, S) :- N = 0, S = 0.
e(N, S) :- N >= 1, N1 = N - 1, o(N1, S1), o(N1, S2), S = S1 + S2 + 1.
o(N, S) :- N = 0, S = 1.
o(N, S) :- N >= 1, N1 = N - 1, e(N1, S1), e(N1, S2), S = S1 + S2 + 1.
false :- e(N, S), S < N.
