% Safe: McCarthy's 91 function (nested, non-linear) is 91 for every N =< 101.
mc(N, R) :- N > 100, R = N - 10.
mc(N, R) :- N =< 100, N1 = N + 11, mc(N1, R1), mc(R1, R).
false :- mc(N, R), N =< 101, R > 91.
false :- mc(N, R), N =< 101, R < 91.
