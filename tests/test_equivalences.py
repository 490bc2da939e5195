"""The equivalences runner takes every gamma in one pass over its batch:
its reports are those of one run per gamma, and a further gamma transforms
no block of f, J_sigma f or f' again."""

from powemb.lpengine import Grid
from powemb.suite import check_norm_equivalences

GRID = Grid(1, 16.0, 2 ** 9)


def test_one_pass_gives_the_reports_of_one_run_per_gamma():
    both = check_norm_equivalences(0, grid=GRID, gammas=(0, 0.5), count=2)
    apart = [r for gammas in ((0,), (0.5,))
             for r in check_norm_equivalences(0, grid=GRID, gammas=gammas,
                                              count=2)]
    assert len(both) == 10
    assert [r.to_dict() for r in both] == [r.to_dict() for r in apart]


def test_a_further_gamma_transforms_no_block_again(fft_calls):
    # Per field and further gamma: J_{1/2} f, J_1 f and one stack of f and
    # f' for the W norm; the B and F norms read the blocks already made.
    count = 2
    check_norm_equivalences(0, grid=GRID, gammas=(0,), count=count)
    seen = []
    for gammas in ((0,), (0, 0.5), (0, 0.5, 2)):
        fft_calls.clear()
        check_norm_equivalences(0, grid=GRID, gammas=gammas, count=count)
        seen.append((len(fft_calls), fft_calls.blocks))
    for (calls, blocks), (more_calls, more_blocks) in zip(seen, seen[1:]):
        assert (more_calls - calls, more_blocks - blocks) == (3 * count,
                                                              4 * count)

