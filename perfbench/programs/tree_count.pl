% Node count of a binary tree with at least one full-depth branch:
% never fewer than height-plus-one nodes.
tree(H, N) :- H = 0, N = 1.
tree(H, N) :- H >= 1, H1 = H - 1, H2 >= 0, H2 =< H - 1,
              tree(H1, N1), tree(H2, N2), N = N1 + N2 + 1.
false :- tree(H, N), N < H + 1.
