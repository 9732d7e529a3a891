"""The array-wide graph6 reader and the compact ``lines`` chunks: the same
graphs, chunk positions, line numbers and first error as reading the file
line by line (``oracles.graph6_chunks``), at any ``--jobs``."""

import importlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_cliques import emit_graph6, graph_from_edge_mask, random_graph, screen
from spectral_cliques.cli import main
from spectral_cliques.graphs import Graph6Error, graph6_width, mix64, vertex_cap
from spectral_cliques.scan import CorpusSpec, ScanConfig, scan

from oracles import graph6_chunks

scan_module = importlib.import_module("spectral_cliques.scan")

_PAYLOAD = st.integers(63, 126).map(chr)
#: ASCII bytes outside the graph6 characters ?..~ that no strip removes
_BAD = st.sampled_from(" !\"$%&'()*+-./0123456789:;<=>\x7f")


@st.composite
def _graph_line(draw) -> str:
    """A graph6 line of order 1..12, or of a long-form order (63 and up)."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(63, 66)))
    head = chr(63 + n) if n < 63 else "~" + "".join(chr(63 + (n >> sh & 63))
                                                    for sh in (12, 6, 0))
    return head + "".join(draw(st.lists(_PAYLOAD, min_size=graph6_width(n),
                                        max_size=graph6_width(n))))


@st.composite
def _malformed(draw) -> str:
    line = draw(_graph_line())
    kind = draw(st.sampled_from(["truncated", "overlong", "bad character"]))
    if kind == "truncated":
        return line[:draw(st.integers(1, len(line) - 1))] if len(line) > 1 else ""
    if kind == "overlong":
        return line + draw(_PAYLOAD)
    at = draw(st.integers(1, len(line) - 1)) if len(line) > 1 else 0
    return line[:at] + draw(_BAD) + line[at + 1:]


def _comment() -> st.SearchStrategy[str]:
    return st.text(_PAYLOAD | _BAD, max_size=6).map(lambda text: "#" + text)


@st.composite
def _line(draw) -> str:
    kind = draw(st.sampled_from(["graph"] * 6 + ["padded", "marker", "comment",
                                                  "blank", "malformed"]))
    if kind == "graph":
        return draw(_graph_line())
    if kind == "padded":
        pad = st.text(" \t\x0b\x0c", max_size=3)
        return draw(pad) + draw(_graph_line()) + draw(pad)
    if kind == "marker":  # after the marker, a graph or a comment
        tail = draw(st.one_of(_graph_line(), _comment()))
        return ">>graph6<<" + draw(st.sampled_from(["", " ", "\t "])) + tail
    if kind == "comment":
        return draw(_comment())
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    return draw(_malformed())


@st.composite
def _file(draw) -> bytes:
    """Lines of every kind, each ended by LF, CRLF or CR, the last maybe
    by nothing."""
    lines = draw(st.lists(_line(), min_size=0, max_size=14))
    ends = draw(st.lists(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text.encode("ascii")


def _new_chunks(path: str) -> list[list[tuple[int, int, bool, object]]]:
    """What the scan's chunks hold, as ``graph6_chunks`` lists it."""
    out = []
    for chunk in scan_module._make_chunks(CorpusSpec(kind="file", path=path)):
        _, first, text = chunk
        starts, ends = scan_module._line_spans(np.frombuffer(text, dtype=np.uint8))
        linenos = (first + np.flatnonzero(ends > starts)).tolist()
        size, bits, built = scan_module._chunk_graphs(chunk)
        graphs = [(pos, True, graph_from_edge_mask(n, mask))
                  for n, (positions, masks) in bits.items()
                  for pos, mask in zip(np.asarray(positions).tolist(), masks.tolist())]
        graphs += [(pos, False, g) for pos, g in built]
        graphs.sort(key=lambda item: item[0])
        assert [pos for pos, _, _ in graphs] == list(range(size)) == list(range(len(linenos)))
        out.append([(pos, linenos[pos], short, g) for pos, short, g in graphs])
    return out


def _outcome(fn):
    try:
        return fn()
    except Graph6Error as exc:
        return f"error: {exc}"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=_file(), cap=st.sampled_from(["9", "64", "70"]),
       bounds=st.sampled_from([(1, 1), (100, 1024), (5000, 600)]))
def test_reader_matches_line_by_line_oracle(tmp_path_factory, data, cap, bounds):
    path = str(tmp_path_factory.mktemp("g6") / "corpus.g6")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SCL_MAX_N", cap)
        # chunk bounds of a few lines, or of one: several chunks, so a pool starts
        mp.setattr(scan_module, "_CHUNK_ENTRIES", bounds[0])
        mp.setattr(scan_module, "_CHUNK_SUBSETS", bounds[1])
        top = min(screen.MASK_MAX_N, vertex_cap())
        want = _outcome(lambda: graph6_chunks(path, top, *bounds))
        scan_module._init_scan_worker(CorpusSpec(kind="file", path=path),
                                      ScanConfig(checks={"wilf": {}}), ())
        assert _outcome(lambda: _new_chunks(path)) == want
        for jobs in (1, 2):
            got = _outcome(lambda: scan(CorpusSpec(kind="file", path=path),
                                        ScanConfig(checks={"maxmu1": {}}), jobs=jobs))
            if isinstance(want, str):
                assert got == want
            else:
                assert got.graphs_checked == sum(len(chunk) for chunk in want)


def test_short_graph6_orders():
    # well formed, order in one character, at most the given top
    lines = ("FgaG_", "@", "FgaG", "FgaG_?", "Fga G", "?", "~??FgaG_", "")
    buf = np.frombuffer("".join(line + "\n" for line in lines).encode("ascii"),
                        dtype=np.uint8)
    starts, ends = scan_module._line_spans(buf)
    assert scan_module._short_orders(buf, starts, ends, 10).tolist() == [7, 1, 0, 0, 0, 0, 0, 0]
    assert scan_module._short_orders(buf, starts, ends, 6).tolist() == [0, 1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("command", ["scan", "check"])
def test_non_ascii_byte_names_file_and_line(tmp_path, capsys, command):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\r\n# ok\nDQ\xc3\xa9c\nBw\n")
    code = main([command, "--file", str(corpus), "--check", "wilf"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {corpus}, line 3: non-ASCII byte 0xc3\n"


def test_check_strips_what_follows_the_marker(tmp_path, capsys):
    """The text after a '>>graph6<<' marker is stripped again: a graph is
    printed as written, and a comment after the marker is skipped."""
    corpus = tmp_path / "c.g6"
    corpus.write_text(">>graph6<< Bw\n>>graph6<< # a comment\n")
    assert main(["check", "--file", str(corpus), "--check", "wilf"]) == 0
    assert [entry["graph6"] for entry in json.loads(capsys.readouterr().out)] == ["Bw"]


def test_lines_chunk_is_compact(tmp_path):
    """A lines chunk is its first line number and one bytes object: the
    chunk list of a 16,384-line file of order 7 is four chunks of 4,096
    lines, and pickles to about the file's size."""
    lines = [emit_graph6(random_graph(7, 0.5, mix64(1, i))) for i in range(1 << 14)]
    corpus = tmp_path / "c.g6"
    corpus.write_text("# sample\n" + "\n".join(lines) + "\n")
    chunks = scan_module._make_chunks(CorpusSpec(kind="file", path=str(corpus)))
    assert len(chunks) == 4
    assert {type(text) for _, _, text in chunks} == {bytes}
    assert [first for _, first, _ in chunks] == [2 + 4096 * i for i in range(4)]
    assert len(pickle.dumps(chunks)) <= 1.01 * corpus.stat().st_size
