"""Golden hopset files: sha256 of `dump_hopset` output on fixed instances.

Hopset files must stay byte-identical across refactors; any change to these
digests has to be deliberate.  Each graph is built in reduced mode with and
without witnesses (`-w`) and in direct mode with witnesses.
"""

import hashlib
import io

import pytest

from hopsets import HopsetParams, build_hopset, dump_hopset, er_graph, grid_graph, path_graph

GRAPHS = {
    "path": lambda: path_graph(64, 2),
    "er": lambda: er_graph(120, 0.05, 1, 10**12, seed=1),
    "grid": lambda: grid_graph(10, 12, 1, 50, seed=1),
}

GOLDEN = {
    "path-reduced": "d8bab19cccc28c34b026d49717a2773446657dc3374430169fd5dfce1ab1348e",
    "path-reduced-w": "5e3c4ef1cd9bb8ce448531b905f37dcd64945a852f0e14d839a842b87ac20878",
    "path-direct-w": "00d400c4686c88102814580b9bff512cfe2392e1d33a7983eafa87ad67d2e849",
    "er-reduced": "1c23486832c4f74d95509c2903bcb76f19fcc8d67e3a0f67c68cf61b9a274cf8",
    "er-reduced-w": "2827ec494047881d2a01a9b6ac5dfcd6dc57d10989266bdc08574d7a286b1d81",
    "er-direct-w": "abf88ea1ef1728b6a4b104bcfebf7dabbb758cc241eadf0997d5867c0e5c107c",
    "grid-reduced": "046ddff210d8cab68e713f7851b4cfef44a719d531c9f98c442d65d316c5bfe9",
    "grid-reduced-w": "a1c48f4a90de9e497c19bf83cc5f1e37d719bed1b07d2de71247ad49aa422a56",
    "grid-direct-w": "5012efc67d4655f0b9e97bac883f69cf1aaaf4fdbee53a3ee53c00cce362e802",
}


@pytest.mark.parametrize("case", GOLDEN)
def test_golden_file_digests(case):
    graph, mode, *witnesses = case.split("-")
    params = HopsetParams.make(
        eps_target="0.3", seed=1, mode=mode, path_reporting=bool(witnesses)
    )
    buf = io.StringIO()
    dump_hopset(build_hopset(GRAPHS[graph](), params), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[case]
