r"""Knowledge graph store: N-Triples parsing, pruning, and binary snapshots.

The graph is built from a directed RDF triple stream and exposed as an
undirected structure: parallel connections between a node pair are collapsed
into one edge carrying the union of their predicate labels.

N-Triples are read in blocks of whole lines, and the parse yields each block
as columns (``TripleBlock``), its only output; ``build_graph`` reads them
without making a record per triple. A block is decoded once, and one
``_BLOCK_RE`` search gives a row per line. The per-line rules (``_line_row``)
define the format, and every line the block pattern refuses goes through
them. The block pattern accepts only lines that those rules accept, and
with the same row:

- Between terms it takes only spaces and tabs, before the line spaces and
  tabs, and after the final ``.`` spaces, tabs and ``\r``. ``str.strip``
  and ``\s`` take each of these too.
- Its IRIs are printable ASCII without ``<`` and ``>`` (``[!-;=?-~]``), a
  subset of ``[^<>\s]``. So each IRI group ends at the same ``>``.
- An object term ends in ``>``, ``"`` or a letter or digit of a language
  tag, never in whitespace or ``.``. So the per-line pattern's lazy object
  group is the whole term. A literal's value follows the same escape
  grammar, so it ends at the same unescaped quote.
- Its language tag is ``_LANG_RE``'s pattern, and its datatype is an IRI.

Blank and comment lines, other whitespace, non-ASCII IRIs, bad tags and
every line of a block that is not valid UTF-8 go through the per-line rules.

The array primitives ``distinct``, ``_csr`` and ``peel`` serve ingest, expansion and core graphs,
and ``_cuts`` cuts pass one's pair batches, relaxation chunks and RWS probe runs.
``distinct`` is the one sorted-distinct primitive: ``_distinct`` dedupes the
rows of several columns by packing each row into one int64 key for it. A
graph whose keys would pass ``2**63`` (about 3.04e9 distinct node
identifiers, node ids times distinct literals, or distinct node pairs times
predicates) raises ``InputDataError`` instead of wrapping.
"""

from __future__ import annotations

import gzip
import io
import re
import struct
import zlib
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, filterfalse, repeat
from operator import not_
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputDataError, SnapshotError, UnknownNodeError

_TRIPLE_RE = re.compile(r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+(.+?)\s*\.$")
_NODE_RE = re.compile(r"^<([^<>\s]+)>$")
_LITERAL_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z0-9-]+)|\^\^<[^<>\s]+>)?$'
)
_LANG = r"[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*"
_LANG_RE = re.compile(rf"^{_LANG}$")

_IRI = r"[!-;=?-~]+"
# one row per line: subject, predicate, node object, '"' for a literal, its
# raw value and language tag; a refused line gives a row of empty groups
_BLOCK_RE = re.compile(
    rf'^(?:[ \t]*<({_IRI})>[ \t]+<({_IRI})>[ \t]+(?:<({_IRI})>|(")'
    r'([^"\\\n]*(?:\\.[^"\\\n]*)*)"'
    rf'(?:@({_LANG})|\^\^<{_IRI}>)?)[ \t]*\.[ \t\r]*$|.*)', re.M)
_REFUSED = ("",) * 6
_BLOCK_BYTES = 1 << 17

_UNESCAPE_RE = re.compile(r'\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[tbnrf"\'\\])')
_SIMPLE_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _escaped(m: re.Match) -> str:
    esc = m.group(0)[1:]
    if esc[0] in ("u", "U"):
        return chr(int(esc[1:], 16))
    return _SIMPLE_ESCAPES[esc]


class TripleBlock(NamedTuple):
    """The triples of one block of input as columns, the form ``parse_ntriples``
    yields and ``build_graph`` reads: ``seq``, the input sequence number of the
    first triple, then per triple its subject, predicate, node object ("" for
    a literal), literal mark ('"' for a literal, "" for a node), unescaped
    literal value ("" for a node) and language tag ("" for none)."""

    seq: int
    subject: Sequence[str]
    predicate: Sequence[str]
    object: Sequence[str]
    literal: Sequence[str]
    value: Sequence[str]
    lang: Sequence[str]


@dataclass
class ParseTally:
    """Running counts for a parse run; malformed lines are recorded, not fatal."""

    lines: int = 0
    records: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return len(self.errors)


@contextmanager
def _open_triples(source) -> Iterator[BinaryIO]:
    """``source``, a path or a binary stream, open for reading with gzip unwrapped.

    The gzip magic is peeked, so a stream that cannot seek, such as a pipe,
    is unwrapped too. A stream the caller passed is left open.
    """
    with ExitStack() as stack:
        if not hasattr(source, "read"):
            stream = stack.enter_context(open(source, "rb"))
        elif hasattr(source, "peek"):
            stream = source
        else:
            stream = io.BufferedReader(source)
            stack.callback(stream.detach)
        if stream.peek(2)[:2] == b"\x1f\x8b":
            stream = stack.enter_context(gzip.open(stream, "rb"))
        yield stream


def _line_row(line: str) -> tuple[str, ...] | str | None:
    """The per-line rules, which define the format: one decoded line's row in
    ``_BLOCK_RE``'s layout, None for a blank or comment line, or the message
    of its error."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    m = _TRIPLE_RE.match(line)
    if m is None:
        return "unparseable line"
    subject, predicate, obj = m.groups()
    node = _NODE_RE.match(obj)
    if node is not None:
        return subject, predicate, node.group(1), "", "", ""
    lit = _LITERAL_RE.match(obj)
    if lit is None:
        return "malformed object term"
    value, lang = lit.groups()
    if lang is not None and not _LANG_RE.match(lang):
        return f"malformed language tag {lang!r}"
    return subject, predicate, "", '"', value, lang or ""


def _line_rows(rows: Iterable[tuple], lines: list[bytes], first: int,
               errors: list[tuple[int, str]]) -> list[tuple]:
    """The rows of a block's records, from the ``_BLOCK_RE`` rows of its
    ``lines`` and the per-line rules on each line refused there; errors are
    recorded with their line number, counted from ``first``."""
    out = []
    for lineno, row, raw in zip(count(first), rows, lines):
        if not row[0]:
            try:
                row = _line_row(raw.decode("utf-8"))
            except UnicodeDecodeError:
                row = "invalid UTF-8"
            if row is None:
                continue
            if isinstance(row, str):
                errors.append((lineno, row))
                continue
        out.append(row)
    return out


def _read_block(stream: BinaryIO, tally: ParseTally) -> TripleBlock | None:
    """The triples of the next block of ``stream``, about ``_BLOCK_BYTES``
    and the rest of the line they end in, as columns; None at the end of the
    stream.

    ``findall`` gives one row per line, so the rows count the lines of a
    decoded block; only a block that is not valid UTF-8 is split to count
    them. Python steps only through the literal values that hold a
    backslash, to unescape them."""
    data = stream.read(_BLOCK_BYTES)
    if not data:
        return None
    data += stream.readline()
    # a last line without a newline is a line too; ^ would start a row after
    # a final newline, so the search stops before it
    end = len(data) - data.endswith(b"\n")
    first = tally.lines + 1
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        lines = data[:end].split(b"\n")
        tally.lines += len(lines)
        rows = _line_rows(repeat(_REFUSED), lines, first, tally.errors)
    else:
        rows = _BLOCK_RE.findall(text, 0, len(text) - text.endswith("\n"))
        tally.lines += len(rows)
        if _REFUSED in rows:
            rows = _line_rows(rows, data[:end].split(b"\n"), first, tally.errors)
    seq = tally.records
    tally.records += len(rows)
    subject, predicate, obj, literal, value, lang = list(zip(*rows)) or [()] * 6
    value = list(value)
    for i in compress(range(len(value)), map(str.__contains__, value, repeat("\\"))):
        value[i] = _UNESCAPE_RE.sub(_escaped, value[i])
    return TripleBlock(seq, subject, predicate, obj, literal, value, lang)


def parse_ntriples(source, tally: ParseTally | None = None) -> Iterator[TripleBlock]:
    """Parse the N-Triples of ``source``, a path or a binary stream, optionally
    gzip-compressed, into ``TripleBlock``s of about ``_BLOCK_BYTES`` of input
    each, in input order.

    Malformed lines are skipped and counted in ``tally`` with their line
    number; blank lines and ``#`` comments are ignored silently. A corrupt
    gzip stream raises ``InputDataError``.
    """
    tally = ParseTally() if tally is None else tally
    try:
        with _open_triples(source) as stream:
            while (block := _read_block(stream, tally)) is not None:
                yield block
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
        # counted at the last whole block, so never past the lines parsed
        raise InputDataError(f"{name}: corrupt gzip stream after line "
                             f"{tally.lines}: {exc}") from None


def read_stoplist(path) -> frozenset[str]:
    """Read a stoplist file: one node identifier per line, ``#`` comments allowed."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ident = line.split("#", 1)[0].strip()
            if ident:
                out.add(ident)
    return frozenset(out)


@dataclass(frozen=True)
class PruneConfig:
    english_only: bool = False
    min_out_degree: int = 20
    stoplist: frozenset[str] = frozenset()
    drop_leaves: bool = False

    def __post_init__(self):
        if self.min_out_degree < 0:
            raise ValueError(f"min_out_degree must be non-negative, got {self.min_out_degree}")


@dataclass(frozen=True)
class PassStats:
    name: str
    nodes: int
    node_triples: int
    literal_triples: int


@dataclass
class PruneStats:
    """Node/triple counts observed after each pruning pass."""

    passes: list[PassStats] = field(default_factory=list)
    collapsed_edges: int = 0

    def format_report(self) -> str:
        lines = [f"{'pass':<12} {'nodes':>10} {'node triples':>14} {'literals':>10}"]
        for p in self.passes:
            lines.append(
                f"{p.name:<12} {p.nodes:>10} {p.node_triples:>14} {p.literal_triples:>10}"
            )
        lines.append(f"collapsed undirected edges: {self.collapsed_edges}")
        return "\n".join(lines)


def _is_english(lang: str | None) -> bool:
    return lang is None or lang.lower() == "en" or lang.lower().startswith("en-")


def _pred_basename(predicate: str) -> str:
    return predicate.rsplit("/", 1)[-1].rsplit("#", 1)[-1]


def _title_priority(lang: str | None) -> int:
    """Rank of a ``type.object.name`` candidate by its language tag; lower wins."""
    lang = (lang or "").lower()
    if lang == "en":
        return 0
    if lang.startswith("en-"):
        return 1
    return 2 if not lang else 3


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal rows in sorted, equal-length columns."""
    first = np.zeros(len(cols[0]), dtype=bool)
    first[:1] = True
    for c in cols:
        first[1:] |= c[1:] != c[:-1]
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, without ``np.unique``."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _distinct(*cols: np.ndarray) -> list[np.ndarray]:
    """The distinct rows of equal-length non-negative int64 columns, in
    lexicographic order: one ``distinct`` of a packed int64 key.

    The first column is the key as it is (node ids are dense). Each later
    column ``c`` folds in as ``prefix * (c.max() + 1) + c``, where ``prefix``
    is the key itself for the second column and its dense rank (one
    ``argsort``) after that; ``divmod`` and the ranked keys' heads unpack it.

    Each fold's largest key is checked in Python ints first, so the callers
    pack while these products stay within ``2**63``:

    - node ids × node ids (the out-degree pass over node objects, the leaf
      pass, the collapse's pairs): about 3.04e9 distinct node identifiers;
    - node ids × distinct ``(value, lang)`` literals (the out-degree pass
      over literal objects);
    - distinct node pairs × predicates (the collapse's third column).

    Past that, ``InputDataError`` names the two factors and the limits, and
    no key wraps.
    """
    key, folds = cols[0], []
    for i, c in enumerate(cols[1:]):
        heads = None
        if i:
            order = np.argsort(key)
            ranked = key[order]
            first = _run_starts(ranked)
            heads, key = ranked[first], np.empty_like(key)
            key[order] = np.cumsum(first) - 1
        span, base = int(key.max(initial=0)) + 1, int(c.max(initial=0)) + 1
        if span * base > 2 ** 63:
            lead = f"distinct rows of columns 1-{i + 1}" if i else "values of column 1"
            raise InputDataError(
                f"graph too large: deduplicating rows needs {span} x {base} int64 keys "
                f"({span} {lead} x {base} values of column {i + 2}), past the limit "
                f"2**63; the limits are about 3.04e9 node identifiers, node ids x "
                f"distinct literals, and distinct node pairs x predicates")
        key = key * base + c
        folds.append((heads, base))
    key = distinct(key)
    out = []
    for heads, base in reversed(folds):
        key, last = np.divmod(key, base)
        out.append(last)
        if heads is not None:
            key = heads[key]
    return [key, *reversed(out)]


@dataclass
class _Triples:
    """Interned triple columns: node triples ``(s, p, o)`` and literal triples
    ``(ls, lk)``, where ``lk`` numbers the literal's distinct ``(value, lang)``."""

    s: np.ndarray
    p: np.ndarray
    o: np.ndarray
    ls: np.ndarray
    lk: np.ndarray

    def restrict(self, keep: np.ndarray) -> "_Triples":
        """The triples whose subject and node object are both in the ``keep`` mask."""
        nodes = keep[self.s] & keep[self.o]
        lits = keep[self.ls]
        return _Triples(self.s[nodes], self.p[nodes], self.o[nodes],
                        self.ls[lits], self.lk[lits])

    def census(self, n: int, name: str, stats: PruneStats) -> np.ndarray:
        """Record the ``PassStats`` row and return the mask of the nodes present."""
        present = np.zeros(n, dtype=bool)
        for col in (self.s, self.o, self.ls):
            present[col] = True
        stats.passes.append(PassStats(name, int(present.sum()), len(self.s), len(self.ls)))
        return present


def _csr(u: np.ndarray, v: np.ndarray, n: int):
    """``indptr``, ``indices`` and ``edge_id`` of the undirected edges (u[e], v[e]) over
    ``n`` nodes, ``u`` sorted; canonical pairs give sorted rows (lower neighbours come from ``u``).

    Row ``x`` lists the edges with ``v == x``, then those with ``u == x``, each
    in edge order: a stable sort of the ends ``v`` then ``u``. Only ``v`` needs
    sorting, since ``u`` is in row order already."""
    from_v, from_u = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(from_v + from_u, out=indptr[1:])
    # v's stable order, as the order of distinct keys: an unstable sort is faster
    order = np.argsort(v * len(v) + np.arange(len(v)))
    # a sorted end's slot is its rank plus the entries of the other half in earlier rows
    at_v = np.arange(len(v)) + np.repeat(np.cumsum(from_u) - from_u, from_v)
    at_u = np.arange(len(u)) + np.repeat(np.cumsum(from_v), from_u)
    indices = np.empty(2 * len(u), dtype=np.result_type(u, v))
    edge_id = np.empty(2 * len(u), dtype=np.int64)
    indices[at_v], indices[at_u] = u[order], v
    edge_id[at_v], edge_id[at_u] = order, np.arange(len(u))
    return indptr, indices, edge_id


def peel(size: int, pinned, u: np.ndarray, v: np.ndarray, *cols: np.ndarray):
    """Drop every node of degree <= 1 outside ``pinned``, with its edges, until
    none is left, from the undirected edges (u[e], v[e]) over ``size`` nodes;
    return the mask of the nodes left, then ``u``, ``v`` and each of ``cols``
    on the edges left.

    Rounds drop the same set as one-at-a-time: both keep the largest node set
    that holds every pinned node and in which every other node has degree >= 2.
    A round costs O(size + remaining edges); the number of rounds is the depth
    of the deepest pendant tree."""
    free = np.ones(size, dtype=bool)
    free[pinned] = False
    degree = np.bincount(u, minlength=size) + np.bincount(v, minlength=size)
    while True:
        drop = free & (degree <= 1)
        if not drop.any():
            break
        free &= ~drop
        gone = drop[u] | drop[v]
        degree -= np.bincount(u[gone], minlength=size) + np.bincount(v[gone], minlength=size)
        u, v, *cols = (c[~gone] for c in (u, v, *cols))
    free[pinned] = True
    return (free, u, v, *cols)


def _cuts(width: np.ndarray, cap: int) -> list[int]:
    """Bounds that cut rows of ``width`` into runs, in order: from where the
    last run ended, each takes the most rows whose widths sum to at most
    ``cap``, and at least one: one ``searchsorted`` per run."""
    end = np.concatenate([[0], np.cumsum(width)])
    bounds = [0]
    while bounds[-1] < len(width):
        a = bounds[-1]
        bounds.append(max(a + 1, int(np.searchsorted(end, end[a] + cap, "right")) - 1))
    return bounds


def _ranks(strings: list[str], ids: Iterable[int]) -> tuple[list[int], np.ndarray]:
    """``ids`` sorted by their strings, and each id's position in that order."""
    order = sorted(ids, key=strings.__getitem__)
    rank = np.zeros(len(strings), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return order, rank


def _number(ids: dict, keys: Sequence) -> Iterator[int]:
    """Each key's id in ``ids``, after numbering the keys it lacks in their
    first-seen order, so the ids stay dense: ``0 .. len(ids) - 1``.

    The filter is lazy, so a key repeated within ``keys`` is numbered at its
    first occurrence and found at the later ones; Python steps only through
    the keys that get a new id."""
    for key in filterfalse(ids.__contains__, keys):
        ids[key] = len(ids)
    return map(ids.__getitem__, keys)


def _intern(blocks: Iterable[TripleBlock], cfg: PruneConfig):
    """Read the blocks once into ``_Triples`` columns without keeping a record.

    Keys are numbered a block at a time by ``_number``. Any numbering
    serves: ``_ranks`` orders nodes and predicates by identifier, and literal
    numbers are only counted. Python steps through ``type.object.name``
    rows alone. Returns the columns, the mask of English literal triples,
    the node and predicate id tables, and per subject its best
    ``type.object.name`` candidate that the English pass keeps, as
    (priority, input sequence, text); lower wins.
    """
    node_ids: dict[str, int] = {}
    pred_ids: dict[str, int] = {}
    lit_ids: dict[tuple[str, str], int] = {}
    cols = tuple(array("q") for _ in range(5))
    s, p, o, ls, lk = cols
    english = bytearray()
    names: dict[int, tuple[int, int, str]] = {}
    for b in blocks:
        node = bytes(map(not_, b.literal))
        subjects = list(_number(node_ids, b.subject))
        s.extend(compress(subjects, node))
        p.extend(_number(pred_ids, list(compress(b.predicate, node))))
        o.extend(_number(node_ids, list(compress(b.object, node))))
        subjects, preds, values, langs, seqs = (
            list(compress(c, b.literal)) for c in (
                subjects, b.predicate, b.value, b.lang, range(b.seq, b.seq + len(subjects))))
        ls.extend(subjects)
        # the value is interned only for the out-degree filter to count
        lk.extend(_number(lit_ids, list(zip(values, langs))) if cfg.min_out_degree
                  else repeat(0, len(subjects)))
        en = bytes(map({x for x in set(langs) if _is_english(x or None)}.__contains__, langs))
        english += en
        named = {x for x in set(preds) if _pred_basename(x) == "type.object.name"}
        for i in compress(range(len(preds)), map(named.__contains__, preds)):
            if cfg.english_only and not en[i]:
                continue
            cand = (_title_priority(langs[i]), seqs[i], values[i])
            if subjects[i] not in names or cand < names[subjects[i]]:
                names[subjects[i]] = cand
    ts = _Triples(*(np.frombuffer(c, dtype=np.int64) for c in cols))
    return ts, np.frombuffer(english, dtype=bool), node_ids, pred_ids, names


def _collapse(ts: _Triples, rank: np.ndarray, pred_ids: dict[str, int]):
    """One canonical undirected edge per node pair of the node triples, under
    the node ``rank``, with the sorted union of the pair's predicates: the
    graph's ``predicates``, ``edge_u``, ``edge_v``, ``pred_ptr`` and ``pred_ids``."""
    pred_strings = list(pred_ids)
    pred_order, pred_rank = _ranks(pred_strings, range(len(pred_strings)))
    u, v = rank[ts.s], rank[ts.o]
    links = u != v
    lo, hi, pr = _distinct(np.minimum(u, v)[links], np.maximum(u, v)[links],
                           pred_rank[ts.p][links])
    used = np.bincount(pr, minlength=len(pred_strings)) > 0
    starts = np.flatnonzero(_run_starts(lo, hi))
    return ([pred_strings[pred_order[r]] for r in np.flatnonzero(used).tolist()], lo[starts],
            hi[starts], np.append(starts, len(pr)), (np.cumsum(used) - 1)[pr])


def build_graph(blocks: Iterable[TripleBlock], cfg: PruneConfig) -> "KnowledgeGraph":
    """Prune a stream of ``TripleBlock``s, such as ``parse_ntriples`` yields,
    and assemble the collapsed undirected graph.

    The stream is read once, a block at a time, and no triple is kept as a
    record (``_intern``): subjects and objects become node ids and predicates
    predicate ids, a node triple becomes one row of integer columns, a
    literal triple keeps its subject and a number for its ``(value, lang)``,
    and per subject only the best ``type.object.name`` candidate is kept as
    text.

    Pruning passes run in a fixed order, once each: non-English literal
    removal, stoplist removal, source out-degree filtering, leaf removal.
    Each node pass computes a keep mask over node ids and drops the triples
    with an endpoint outside it in one ``restrict`` step. After every pass
    one ``census`` records its ``PassStats`` row and returns the mask of
    surviving nodes; the last census is the node table.
    Leaf removal iterates until no degree<=1 vertex remains so that every
    surviving node keeps degree >= 2. Literal triples for surviving nodes
    supply titles instead of edges.
    """
    ts, english, node_ids, pred_ids, names = _intern(blocks, cfg)
    n = len(node_ids)
    stats = PruneStats()
    nodes = ts.census(n, "input", stats)

    if cfg.english_only:
        ts = _Triples(ts.s, ts.p, ts.o, ts.ls[english], ts.lk[english])
    nodes = ts.census(n, "english", stats)

    if cfg.stoplist:
        keep = nodes.copy()
        keep[[node_ids[x] for x in cfg.stoplist if x in node_ids]] = False
        ts = ts.restrict(keep)
    nodes = ts.census(n, "stoplist", stats)

    if cfg.min_out_degree > 0:
        out_degree = sum(np.bincount(_distinct(subjects, outs)[0], minlength=n)
                         for subjects, outs in ((ts.s, ts.o), (ts.ls, ts.lk)))
        ts = ts.restrict(out_degree >= cfg.min_out_degree)
    nodes = ts.census(n, "out-degree", stats)

    if cfg.drop_leaves:
        links = ts.s != ts.o
        keep, *_ = peel(n, [], *_distinct(np.minimum(ts.s, ts.o)[links],
                                          np.maximum(ts.s, ts.o)[links]))
        ts = ts.restrict(keep)
    nodes = ts.census(n, "leaves", stats)

    # node ranks follow the sorted identifiers, so the collapsed edges come
    # out in canonical order
    strings = list(node_ids)
    kept, rank = _ranks(strings, np.flatnonzero(nodes).tolist())
    ids = tuple(strings[i] for i in kept)
    titles = tuple(names[i][2] if i in names else strings[i] for i in kept)
    # on a full dump most interned nodes are pruned: free them before the
    # graph builds its own tables
    del node_ids, strings, names
    g = KnowledgeGraph.from_columns(ids, titles, *_collapse(ts, rank, pred_ids),
                                    prune_stats=stats)
    stats.collapsed_edges = g.num_edges
    return g


class KnowledgeGraph:
    """Immutable undirected graph with interned nodes and collapsed edges, in arrays.

    ``ids``, ``titles``; ``predicates``, the sorted predicates the edges carry; int64
    edge columns ``0 <= edge_u < edge_v < len(ids)``, pairs strictly increasing,
    edge ``e`` carrying the increasing ids ``pred_ids[pred_ptr[e]:pred_ptr[e + 1]]``
    (at least one); the CSR rows ``indices``/``edge_id`` from ``indptr[x]`` to
    ``indptr[x + 1]``: node ``x``'s sorted neighbours and the edges to them. The
    constructor interns (u, v) pairs and predicate strings into these columns,
    ``from_columns`` takes the columns; both call ``validate``.
    """

    def __init__(self, ids, titles, edge_endpoints, edge_predicates,
                 prune_stats: PruneStats | None = None):
        runs = [tuple(preds) for preds in edge_predicates]
        predicates = sorted({p for run in runs for p in run})
        index = {p: i for i, p in enumerate(predicates)}
        ends = np.array(list(edge_endpoints), dtype=np.int64).reshape(-1, 2)
        self._set(ids, titles, predicates, ends[:, 0], ends[:, 1],
                  np.cumsum([0, *map(len, runs)], dtype=np.int64),
                  np.array([index[p] for run in runs for p in run], dtype=np.int64),
                  prune_stats)

    @classmethod
    def from_columns(cls, ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids,
                     prune_stats: PruneStats | None = None) -> "KnowledgeGraph":
        g = cls.__new__(cls)
        g._set(ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids, prune_stats)
        return g

    def _set(self, ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids, prune_stats):
        self.ids, self.titles, self.predicates = tuple(ids), tuple(titles), tuple(predicates)
        self.edge_u, self.edge_v, self.pred_ptr, self.pred_ids = edge_u, edge_v, pred_ptr, pred_ids
        self.prune_stats = prune_stats
        self._index = {ident: i for i, ident in enumerate(self.ids)}
        self.validate()
        self.indptr, self.indices, self.edge_id = _csr(edge_u, edge_v, len(self.ids))
        self.degrees = tuple(np.diff(self.indptr).tolist())

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_u)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return ((self.ids, self.titles, self.predicates)
                == (other.ids, other.titles, other.predicates)
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("edge_u", "edge_v", "pred_ptr", "pred_ids")))

    __hash__ = None

    @cached_property
    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        """(u, v) per edge, built on first use; the pipeline reads the columns."""
        return tuple(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    @cached_property
    def edge_predicates(self) -> tuple[tuple[str, ...], ...]:
        """Predicate strings per edge, built on first use."""
        names = [self.predicates[p] for p in self.pred_ids.tolist()]
        bounds = self.pred_ptr.tolist()
        return tuple(tuple(names[a:b]) for a, b in zip(bounds, bounds[1:]))

    def has_node(self, ident: str) -> bool:
        return ident in self._index

    def node_index(self, ident: str) -> int:
        try:
            return self._index[ident]
        except KeyError:
            raise UnknownNodeError(f"unknown node identifier {ident!r}") from None

    def resolve(self, node: int | str) -> int:
        """Index of a node given by identifier or index, or UnknownNodeError."""
        if isinstance(node, str):
            return self.node_index(node)
        if not 0 <= node < len(self.ids):
            raise UnknownNodeError(f"node index {node} out of range")
        return node

    def neighbors(self, node: int | str) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, edge index) pairs for ``node``."""
        node = self.resolve(node)
        a, b = self.indptr[node], self.indptr[node + 1]
        return tuple(zip(self.indices[a:b].tolist(), self.edge_id[a:b].tolist()))

    def closed_neighborhood(self, node: int | str) -> frozenset[int]:
        """The node itself plus all adjacent nodes, as internal indices."""
        node = self.resolve(node)
        return frozenset((node, *self.indices[self.indptr[node]:self.indptr[node + 1]].tolist()))

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge index joining u and v, or None if not adjacent."""
        u, v = self.resolve(u), self.resolve(v)
        a, b = self.indptr[u], self.indptr[u + 1]
        i = a + np.searchsorted(self.indices[a:b], v)
        return int(self.edge_id[i]) if i < b and self.indices[i] == v else None

    @cached_property
    def _title_lookup(self) -> dict[str, int]:
        lookup: dict[str, int] = {}
        for i, title in enumerate(self.titles):
            lookup.setdefault(title.lower(), i)
        return lookup

    def title_to_node(self, text: str) -> int | None:
        """Lowest-index node whose title equals ``text`` case-insensitively."""
        return self._title_lookup.get(text.lower())

    def validate(self) -> None:
        """Check every rule of the class docstring; ValueError on the first broken."""
        n, k = len(self.ids), len(self.predicates)
        u, v, ptr, pred = self.edge_u, self.edge_v, self.pred_ptr, self.pred_ids
        if len(self.titles) != n:
            raise ValueError("title table size does not match node table")
        if len(self._index) != n:
            raise ValueError("node identifiers are not unique")
        if not (len(v) == len(u) == len(ptr) - 1 and ptr[0] == 0 and ptr[-1] == len(pred)):
            raise ValueError("predicate table size does not match edge table")
        bad = (u < 0) | (u >= v) | (v >= n)
        bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        if bad.any():
            e = bad.argmax()
            raise ValueError(f"edge {e} ({u[e]}, {v[e]}) breaks canonical order "
                             f"(0 <= u < v < {n}, pairs increasing)")
        empty = ptr[1:] <= ptr[:-1]
        if empty.any():
            raise ValueError(f"edge {empty.argmax()} has an empty predicate list")
        if len(pred) and not 0 <= pred.min() <= pred.max() < k:
            raise ValueError("predicate index out of range")
        rising = np.diff(pred) > 0
        rising[ptr[1:-1] - 1] = True  # a run may start below the previous one
        if not rising.all():
            e = np.searchsorted(ptr, rising.argmin(), side="right") - 1
            raise ValueError(f"predicate list of edge {e} not sorted/unique")
        if any(a >= b for a, b in zip(self.predicates, self.predicates[1:])):
            raise ValueError("predicate table not sorted/unique")
        if np.count_nonzero(np.bincount(pred, minlength=k)) < k:
            raise ValueError("predicate table holds a predicate no edge carries")


# Snapshot layout, version 2, the only version read; every integer is
# little-endian and unsigned.
#   header   _HEADER: magic, version, then the node, edge, predicate and
#            predicate-reference counts
#   strings  each table of _TABLES in turn: one block of its strings' UTF-8
#            byte lengths, then those bytes concatenated
#   columns  each of _COLUMNS in turn, one block
# A block of k values is k _U4 integers; each table and column is as long as
# the header count its entry names. The file ends after the last column.
_MAGIC = b"SEDKGRPH"
_VERSION = 2
_HEADER = struct.Struct("<8sIIIII")
_U4 = np.dtype("<u4")
_TABLES = (("ids", 0), ("titles", 0), ("predicates", 2))
_COLUMNS = (("edge_u", 1), ("edge_v", 1), ("pred_count", 1), ("pred_ids", 3))


def _pack_u4(name: str, values) -> bytes:
    """``values`` as one block; ValueError naming ``name`` if one does not fit a _U4."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and not 0 <= values.min() <= values.max() <= np.iinfo(_U4).max:
        raise ValueError(f"snapshot {name} holds a value outside 0..{np.iinfo(_U4).max}")
    return values.astype(_U4).tobytes()


def save_snapshot(g: KnowledgeGraph, path) -> None:
    """Serialize the graph as version 2; identical structures produce identical bytes."""
    fields = {"ids": g.ids, "titles": g.titles, "predicates": g.predicates,
              "edge_u": g.edge_u, "edge_v": g.edge_v, "pred_count": np.diff(g.pred_ptr),
              "pred_ids": g.pred_ids}
    counts = (len(g.ids), g.num_edges, len(g.predicates), len(g.pred_ids))
    # every block is packed, and range-checked, before the file is opened;
    # the header block is the bytes _HEADER unpacks
    blocks = [_MAGIC, _pack_u4("header", (_VERSION, *counts))]
    for name, _ in _TABLES:
        raws = [s.encode("utf-8") for s in fields[name]]
        blocks += [_pack_u4(f"{name} lengths", [len(r) for r in raws]), b"".join(raws)]
    blocks += [_pack_u4(name, fields[name]) for name, _ in _COLUMNS]
    with open(path, "wb") as out:
        out.writelines(blocks)


def _unpack_u4(buf: bytes, pos: int, count: int) -> tuple[np.ndarray, int]:
    """The block of ``count`` values at ``pos`` as an int64 copy, and the position after it."""
    end = pos + _U4.itemsize * count
    if end > len(buf):
        raise SnapshotError("truncated snapshot file")
    return np.frombuffer(buf, _U4, count, pos).astype(np.int64), end


def _read_body(buf: bytes, counts: Sequence[int]) -> tuple[dict, int]:
    """``from_columns``'s arguments from the tables and columns after the
    header, whose ``counts`` size them, and the position after them."""
    pos, fields = _HEADER.size, {}
    for name, size in _TABLES:
        lengths, pos = _unpack_u4(buf, pos, counts[size])
        bounds = [pos, *(pos + np.cumsum(lengths)).tolist()]
        pos = bounds[-1]
        if pos > len(buf):
            raise SnapshotError("truncated snapshot file")
        fields[name] = [buf[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    for name, size in _COLUMNS:
        fields[name], pos = _unpack_u4(buf, pos, counts[size])
    fields["pred_ptr"] = np.concatenate(([0], np.cumsum(fields.pop("pred_count"))))
    return fields, pos


def load_snapshot(path) -> KnowledgeGraph:
    """Load a version 2 snapshot; raise SnapshotError if it is corrupt or of
    another version."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:len(_MAGIC)]
    if magic != _MAGIC:
        raise SnapshotError(f"not a graph snapshot (magic {magic!r})")
    (version,), _ = _unpack_u4(buf, len(_MAGIC), 1)
    if version != _VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}; run `sedrec ingest` "
                            f"again to write a version {_VERSION} snapshot")
    try:
        _, _, *counts = _HEADER.unpack_from(buf)
        fields, pos = _read_body(buf, counts)
    except struct.error:
        raise SnapshotError("truncated snapshot file") from None
    except UnicodeDecodeError:
        raise SnapshotError("snapshot string is not valid UTF-8") from None
    if pos != len(buf):
        raise SnapshotError("truncated snapshot file" if pos > len(buf)
                            else "trailing bytes after snapshot payload")
    # every field is a copy: the file's bytes go before the graph builds its tables
    del buf
    try:
        return KnowledgeGraph.from_columns(**fields)
    except ValueError as exc:
        raise SnapshotError(f"inconsistent snapshot: {exc}") from None
