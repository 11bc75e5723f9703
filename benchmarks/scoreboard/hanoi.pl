% Safe: h(n) = 2^n - 1 moves, never fewer than n.
h(N, M) :- N = 0, M = 0.
h(N, M) :- N >= 1, N1 = N - 1, h(N1, M1), h(N1, M2), M = M1 + M2 + 1.
false :- h(N, M), M < N.
