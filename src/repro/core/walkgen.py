"""Generated per-GPM memory walkers (partial evaluation of the hot path).

A walker is the engine's one fast implementation of a memory access; the
per-line ``MemorySystem.load``/``store`` pair is the other, and the
reference.  One walker call walks a whole record's reads and writes, and
would otherwise pay, per line, for work that is invariant for a given
system: homing dispatch over candidate homes, bound-method calls into
every :class:`BandwidthPipe` on the path, latency attribute loads, and
per-SM counter updates.

This module *generates* walker source for each GPM with every
system-invariant decision resolved at build time:

* set indices and home keys computed from the record's plain line
  address, so records carry nothing machine-specific and every machine
  shares a trace's records.  Set counts and the page size are bound
  names rather than literals: machines that differ only in cache or page
  sizes then emit the same source and share one compile;
* home dispatch unrolled into literal ``if home == g`` chains (and removed
  entirely for single-partition systems);
* every pipe charge inlined: the bucket-reservation fast path of
  ``BandwidthPipe.transfer`` runs as straight-line code with literal bucket
  constants, falling back to ``BandwidthPipe.reserve`` for the rare
  multi-bucket spill;
* pipe byte/transfer counters derived once per kernel from per-home
  tallies (ring message sizes are fixed per direction), and ``busy_until``
  tracked in shared max-cells folded once per kernel;
* a record's DRAM line charges at one pipe and cycle collapsed into one
  reservation of their summed bytes: the greedy bucket fill is
  associative, so only the last finish is observable and it equals
  ``BandwidthPipe.reserve(t, n * count)`` floored at one line's time;
* all pure-count statistics accumulated in one shared per-GPM counter list
  and folded into the real stats objects at kernel boundaries.

Each SM gets exactly one walker, and every kernel runs it: the L1 and
L1.5 probes are always emitted, even for kernels whose addresses never
repeat (and so can never hit there).  A GPM's bound names (its L1.5 and
L2 sets, every pipe on its routes, the counter list) become closure cells
once per GPM; each SM's walker closes over those same cells and adds only
its own L1 sets and stats and its five L1 counters.

Everything observable — SimResult fields, cache/DRAM/pipe counters, LRU
state of the persistent L2 — is bit-identical to the per-line reference
path; tests/test_perf_identity.py pins this across the config matrix.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, List


class UnsupportedWalk(Exception):
    """Raised when a system's shape cannot be specialized; the engine then
    runs every access on the per-line reference path."""


def _ind(level: int, text: str) -> str:
    return "    " * level + text


# Compiled factory code by exact source, which names its GPM: repeat shapes
# skip ``compile``, the dominant cost of specialization.  Bounded so a
# long-running server cannot grow without limit; no bench workload process
# compiles more than 22 sources (fabric-paths' three 8-GPM fabrics).
@functools.lru_cache(maxsize=32)
def _compile(source: str, filename: str):
    return compile(source, filename, "exec")


class _GpmCodegen:
    """Emits one GPM's ``_gpm(ctx)``, which returns ``_factory(sm) -> (walk, flush)``."""

    def __init__(self, memsys, gpm_id, pipe_cells, line_bytes, header_bytes):
        self.memsys = memsys
        self.gpms = memsys._gpms
        self.n = len(self.gpms)
        self.gid = gpm_id
        self.gpm = self.gpms[gpm_id]
        self.pipe_cells = pipe_cells
        self.request_bytes = header_bytes
        self.response_bytes = line_bytes + header_bytes
        self.store_bytes = line_bytes + header_bytes

        self._bound: Dict[str, object] = {}
        self.ctx_names: List[str] = []
        self.ctx_values: List[object] = []
        self._pipe_names: Dict[int, dict] = {}
        self.counters: Dict[str, int] = {}
        self.gc: list = []

        page_table = memsys._page_table
        policy = page_table.policy
        self.interleaved = page_table._line_interleaved
        self.n_partitions = policy.n_partitions
        self.lines_per_page = page_table.address_map.lines_per_page
        self.partition_of_page = policy.partition_of_page
        page_map = getattr(policy, "_page_map", None)
        self.page_map_get = page_map.get if page_map is not None else None

        gpm = self.gpm
        # Every SM of a GPM is built from one SMConfig, so the first SM's
        # L1 shape is every SM's.
        sm = gpm.sms[0]
        self.l1_n_sets, self.l1_ways = sm.l1.n_sets, sm.l1.ways
        self.l1_track, self.l1_hit = sm.l1._track_dirty, sm.l1_hit_latency

        self.has_l15 = gpm.has_l15
        self.caches_local = gpm.l15_caches_local
        self.l15 = gpm.l15
        self.xbar_lat = gpm.xbar_latency
        self.own_l2_hit = gpm.l2_hit_latency
        self.l15_pen = gpm.l15_miss_penalty
        self.l15_hit = gpm.l15_hit_latency
        self.local_extra = (
            self.l15_pen + self.own_l2_hit if self.caches_local else self.own_l2_hit
        )
        self.own_dram = gpm.dram

    # -- binding helpers -------------------------------------------------

    def bind(self, name: str, value) -> str:
        known = self._bound.get(name)
        if known is not None:
            if known is not value:  # pragma: no cover - generator invariant
                raise UnsupportedWalk(f"ctx name collision: {name}")
            return name
        self._bound[name] = value
        self.ctx_names.append(name)
        self.ctx_values.append(value)
        return name

    def cell(self, name: str) -> str:
        index = self.counters.get(name)
        if index is None:
            index = self.counters[name] = len(self.counters)
        return f"_GC[{index}]"

    def pipe_names(self, pipe) -> dict:
        names = self._pipe_names.get(id(pipe))
        if names is not None:
            return names
        cell = self.pipe_cells.get(id(pipe))
        if cell is None:
            cell = self.pipe_cells[id(pipe)] = (pipe, [0.0])
        k = len(self._pipe_names)
        names = {
            "U": self.bind(f"_U{k}", pipe._used),
            "G": self.bind(f"_G{k}", pipe._used.get),
            "P": self.bind(f"_P{k}", pipe),
            "A": self.bind(f"_A{k}", pipe._advance_full_prefix),
            "R": self.bind(f"_R{k}", pipe.reserve),
            "M": self.bind(f"_M{k}", cell[1]),
            "bc": repr(pipe.bucket_cycles),
            "cap": repr(pipe.bucket_capacity),
            "bw": pipe.bytes_per_cycle,
        }
        self._pipe_names[id(pipe)] = names
        return names

    # -- charge emission -------------------------------------------------

    def _emit_charge(self, out, ind, pipe, tvar, n_bytes, count_var=None):
        """Inline ``pipe.transfer(tvar, n_bytes)``; floored finish in ``_f``.

        With ``count_var``, inline that many back-to-back transfers as one
        reservation of ``n_bytes * count_var`` floored at one charge's
        time: the run's last finish (see ``BandwidthPipe.reserve``).
        Counters and ``busy_until`` are deferred: byte/transfer totals are
        derived from the per-home tallies at fold time, and the max-cell
        update here feeds the once-per-kernel ``busy_until`` fold.
        """
        p = self.pipe_names(pipe)
        floor = repr(n_bytes / p["bw"])
        size = n_bytes
        if count_var is not None:
            out.append(_ind(ind, f"_n2 = {n_bytes} * {count_var}"))
            size = "_n2"
        out += [
            _ind(ind, f"_b = int({tvar} / {p['bc']})"),
            _ind(ind, f"_fp = {p['P']}._full_prefix"),
            _ind(ind, "if _b < _fp:"),
            _ind(ind + 1, "_b = _fp"),
            _ind(ind, f"_o = {p['G']}(_b, 0.0)"),
            _ind(ind, f"_n = _o + {size}"),
            _ind(ind, f"if _n <= {p['cap']}:"),
            _ind(ind + 1, f"{p['U']}[_b] = _n"),
            _ind(ind + 1, f"_f = (_b + _n / {p['cap']}) * {p['bc']}"),
            _ind(ind + 1, f"if _n >= {p['cap']} and _b == _fp:"),
            _ind(ind + 2, f"{p['A']}(_b + 1)"),
            _ind(ind, "else:"),
            _ind(ind + 1, f"_f = {p['R']}({tvar}, {size})"),
            _ind(ind, f"_g = {tvar} + {floor}"),
            _ind(ind, "if _f < _g:"),
            _ind(ind + 1, "_f = _g"),
            _ind(ind, f"if _f > {p['M']}[0]:"),
            _ind(ind + 1, f"{p['M']}[0] = _f"),
        ]

    def _emit_hops(self, out, ind, links, direction, n_bytes, tvar):
        for link in links:
            pipe = getattr(link, direction)
            self._emit_charge(out, ind, pipe, tvar, n_bytes)
            out.append(_ind(ind, f"{tvar} = _f + {link.latency_cycles!r}"))

    # -- path emission ---------------------------------------------------

    def _emit_home(self, out, ind):
        if self.interleaved:
            out.append(_ind(ind, f"home = line % {self.n_partitions}"))
            return
        lpp = self.bind("_LPP", self.lines_per_page)
        out.append(_ind(ind, f"_pg = line // {lpp}"))
        p = self.bind("_POP", self.partition_of_page)
        if self.page_map_get is not None:
            g = self.bind("_PMG", self.page_map_get)
            out.append(_ind(ind, f"home = {g}(_pg)"))
            out.append(_ind(ind, "if home is None:"))
            out.append(_ind(ind + 1, f"home = {p}(_pg, {self.gid})"))
        else:
            out.append(_ind(ind, f"home = {p}(_pg, {self.gid})"))

    def _emit_l15_read(self, out, ind, penalized):
        """L1.5 probe on the read path; miss falls through with ``_t`` set."""
        l15s = self.bind("_L15S", self.l15._sets)
        out += [
            _ind(ind, f"_cs = {l15s}[line % {self.bind('_NL15', self.l15.n_sets)}]"),
            _ind(ind, "_d = _cs.pop(line, None)"),
            _ind(ind, "if _d is not None:"),
            _ind(ind + 1, f"{self.cell('15h')} += 1"),
            _ind(ind + 1, "_cs[line] = _d"),
            _ind(ind + 1, f"done = base_time + {self.l15_hit!r}"),
            _ind(ind + 1, "if done > mem_done:"),
            _ind(ind + 2, "mem_done = done"),
            _ind(ind + 1, "continue"),
            _ind(ind, f"{self.cell('15m')} += 1"),
            _ind(ind, f"if len(_cs) >= {self.l15.ways}:"),
            _ind(ind + 1, "if _cs.pop(next(iter(_cs))):"),
            _ind(ind + 2, f"{self.cell('15wb')} += 1"),
            _ind(ind, "_cs[line] = False"),
        ]
        if penalized:
            out.append(_ind(ind, f"_t = base_time + {self.l15_pen!r}"))

    def _emit_l15_store(self, out, ind):
        l15s = self.bind("_L15S", self.l15._sets)
        insert = "True" if self.l15._track_dirty else "_d"
        out += [
            _ind(ind, f"_cs = {l15s}[line % {self.bind('_NL15', self.l15.n_sets)}]"),
            _ind(ind, "_d = _cs.pop(line, None)"),
            _ind(ind, "if _d is not None:"),
            _ind(ind + 1, f"{self.cell('15h')} += 1"),
            _ind(ind + 1, f"{self.cell('15wh')} += 1"),
            _ind(ind + 1, f"_cs[line] = {insert}"),
            _ind(ind, "else:"),
            _ind(ind + 1, f"{self.cell('15byp')} += 1"),
        ]

    def _emit_local_read(self, out, ind):
        c = self.cell
        out.append(_ind(ind, f"{c('lh')} += 1"))
        if self.caches_local:
            self._emit_l15_read(out, ind, penalized=False)
        l2 = self.gpm.l2
        if l2.n_sets:
            l2s = self.bind(f"_L2S{self.gid}", l2._sets)
            nl2 = self.bind(f"_NL2{self.gid}", l2.n_sets)
            out += [
                _ind(ind, f"_cs = {l2s}[line % {nl2}]"),
                _ind(ind, "_d = _cs.pop(line, None)"),
                _ind(ind, "if _d is not None:"),
                _ind(ind + 1, f"{c(f'l2h{self.gid}')} += 1"),
                _ind(ind + 1, "_cs[line] = _d"),
                _ind(ind + 1, "if local_time > mem_done:"),
                _ind(ind + 2, "mem_done = local_time"),
                _ind(ind + 1, "continue"),
                _ind(ind, f"{c(f'l2m{self.gid}')} += 1"),
                _ind(ind, f"if len(_cs) >= {l2.ways}:"),
                _ind(ind + 1, "if _cs.pop(next(iter(_cs))):"),
                _ind(ind + 2, f"{c(f'l2wb{self.gid}')} += 1"),
                _ind(ind + 2, f"{c(f'dw{self.gid}')} += 1"),
                _ind(ind + 2, "local_fills += 1"),
                _ind(ind, "_cs[line] = False"),
            ]
        else:
            out.append(_ind(ind, f"{c(f'l2m{self.gid}')} += 1"))
        out.append(_ind(ind, f"{c(f'dr{self.gid}')} += 1"))
        out.append(_ind(ind, "local_fills += 1"))

    def _emit_remote_read(self, out, ind, home):
        c = self.cell
        out.append(_ind(ind, f"{c('rh')} += 1"))
        out.append(_ind(ind, f"{c('rld')} += 1"))
        if self.has_l15:
            self._emit_l15_read(out, ind, penalized=True)
        else:
            out.append(_ind(ind, "_t = base_time"))
        out.append(_ind(ind, f"{c(f'rgr{home}')} += 1"))
        routes = self.memsys._ring._routes
        self._emit_hops(out, ind, routes[self.gid][home], "request_pipe",
                        self.request_bytes, "_t")
        out.append(_ind(ind, f"_t = _t + {self.gpms[home].l2_hit_latency!r}"))
        l2 = self.gpms[home].l2
        dram = self.gpms[home].dram
        resp = routes[home][self.gid]
        if l2.n_sets:
            l2s = self.bind(f"_L2S{home}", l2._sets)
            nl2 = self.bind(f"_NL2{home}", l2.n_sets)
            out += [
                _ind(ind, f"_cs = {l2s}[line % {nl2}]"),
                _ind(ind, "_d = _cs.pop(line, None)"),
                _ind(ind, "if _d is not None:"),
                _ind(ind + 1, f"{c(f'l2h{home}')} += 1"),
                _ind(ind + 1, "_cs[line] = _d"),
            ]
            self._emit_hops(out, ind + 1, resp, "response_pipe",
                            self.response_bytes, "_t")
            out += [
                _ind(ind + 1, "if _t > mem_done:"),
                _ind(ind + 2, "mem_done = _t"),
                _ind(ind + 1, "continue"),
                _ind(ind, f"{c(f'l2m{home}')} += 1"),
                _ind(ind, "_fl = 1"),
                _ind(ind, f"if len(_cs) >= {l2.ways}:"),
                _ind(ind + 1, "if _cs.pop(next(iter(_cs))):"),
                _ind(ind + 2, f"{c(f'l2wb{home}')} += 1"),
                _ind(ind + 2, f"{c(f'dw{home}')} += 1"),
                _ind(ind + 2, "_fl = 2"),
                _ind(ind, "_cs[line] = False"),
            ]
        else:
            out.append(_ind(ind, f"{c(f'l2m{home}')} += 1"))
            out.append(_ind(ind, "_fl = 1"))
        out.append(_ind(ind, f"{c(f'dr{home}')} += 1"))
        self._emit_charge(out, ind, dram.pipe, "_t", dram.line_bytes, "_fl")
        out.append(_ind(ind, f"_t = _f + {dram.latency_cycles!r}"))
        self._emit_hops(out, ind, resp, "response_pipe", self.response_bytes, "_t")
        out.append(_ind(ind, "if _t > mem_done:"))
        out.append(_ind(ind + 1, "mem_done = _t"))

    def _emit_local_store(self, out, ind):
        c = self.cell
        out.append(_ind(ind, f"{c('lh')} += 1"))
        if self.caches_local:
            self._emit_l15_store(out, ind)
        l2 = self.gpm.l2
        if l2.n_sets:
            l2s = self.bind(f"_L2S{self.gid}", l2._sets)
            nl2 = self.bind(f"_NL2{self.gid}", l2.n_sets)
            hit_insert = "True" if l2._track_dirty else "_d"
            miss_insert = "True" if l2._track_dirty else "False"
            out += [
                _ind(ind, f"_cs = {l2s}[line % {nl2}]"),
                _ind(ind, "_d = _cs.pop(line, None)"),
                _ind(ind, "if _d is not None:"),
                _ind(ind + 1, f"{c(f'l2h{self.gid}')} += 1"),
                _ind(ind + 1, f"{c(f'l2wh{self.gid}')} += 1"),
                _ind(ind + 1, f"_cs[line] = {hit_insert}"),
                _ind(ind + 1, "continue"),
                _ind(ind, f"{c(f'l2m{self.gid}')} += 1"),
                _ind(ind, f"{c(f'l2wm{self.gid}')} += 1"),
                _ind(ind, f"if len(_cs) >= {l2.ways}:"),
                _ind(ind + 1, "if _cs.pop(next(iter(_cs))):"),
                _ind(ind + 2, f"{c(f'l2wb{self.gid}')} += 1"),
                _ind(ind + 2, f"{c(f'dw{self.gid}')} += 1"),
                _ind(ind + 2, "local_fills += 1"),
                _ind(ind, f"_cs[line] = {miss_insert}"),
            ]
        else:
            out.append(_ind(ind, f"{c(f'l2m{self.gid}')} += 1"))
            out.append(_ind(ind, f"{c(f'l2wm{self.gid}')} += 1"))
        out.append(_ind(ind, f"{c(f'dr{self.gid}')} += 1"))
        out.append(_ind(ind, "local_fills += 1"))

    def _emit_remote_store(self, out, ind, home):
        c = self.cell
        out.append(_ind(ind, f"{c('rh')} += 1"))
        out.append(_ind(ind, f"{c('rst')} += 1"))
        if self.has_l15:
            self._emit_l15_store(out, ind)
        out.append(_ind(ind, "_t = store_time"))
        out.append(_ind(ind, f"{c(f'rgs{home}')} += 1"))
        routes = self.memsys._ring._routes
        self._emit_hops(out, ind, routes[self.gid][home], "request_pipe",
                        self.store_bytes, "_t")
        out.append(_ind(ind, f"_t = _t + {self.gpms[home].l2_hit_latency!r}"))
        l2 = self.gpms[home].l2
        dram = self.gpms[home].dram
        if l2.n_sets:
            l2s = self.bind(f"_L2S{home}", l2._sets)
            nl2 = self.bind(f"_NL2{home}", l2.n_sets)
            hit_insert = "True" if l2._track_dirty else "_d"
            miss_insert = "True" if l2._track_dirty else "False"
            out += [
                _ind(ind, f"_cs = {l2s}[line % {nl2}]"),
                _ind(ind, "_d = _cs.pop(line, None)"),
                _ind(ind, "if _d is not None:"),
                _ind(ind + 1, f"{c(f'l2h{home}')} += 1"),
                _ind(ind + 1, f"{c(f'l2wh{home}')} += 1"),
                _ind(ind + 1, f"_cs[line] = {hit_insert}"),
                _ind(ind + 1, "continue"),
                _ind(ind, f"{c(f'l2m{home}')} += 1"),
                _ind(ind, f"{c(f'l2wm{home}')} += 1"),
                _ind(ind, "_fl = 1"),
                _ind(ind, f"if len(_cs) >= {l2.ways}:"),
                _ind(ind + 1, "if _cs.pop(next(iter(_cs))):"),
                _ind(ind + 2, f"{c(f'l2wb{home}')} += 1"),
                _ind(ind + 2, f"{c(f'dw{home}')} += 1"),
                _ind(ind + 2, "_fl = 2"),
                _ind(ind, f"_cs[line] = {miss_insert}"),
            ]
        else:
            out.append(_ind(ind, f"{c(f'l2m{home}')} += 1"))
            out.append(_ind(ind, f"{c(f'l2wm{home}')} += 1"))
            out.append(_ind(ind, "_fl = 1"))
        out.append(_ind(ind, f"{c(f'dr{home}')} += 1"))
        self._emit_charge(out, ind, dram.pipe, "_t", dram.line_bytes, "_fl")

    # -- walker assembly -------------------------------------------------

    def _emit_dispatch(self, out, ind, emit_local, emit_remote):
        if self.n == 1:
            emit_local(out, ind)
            return
        self._emit_home(out, ind)
        out.append(_ind(ind, f"if home == {self.gid}:"))
        emit_local(out, ind + 1)
        others = [h for h in range(self.n) if h != self.gid]
        for i, home in enumerate(others):
            if i < len(others) - 1:
                out.append(_ind(ind, f"elif home == {home}:"))
            else:
                out.append(_ind(ind, "else:"))
            emit_remote(out, ind + 1, home)

    def _emit_walk(self, out):
        c = self.cell
        out.append(_ind(1, "def walk(now, reads, writes):"))
        out.append(_ind(2, "nonlocal c_l1h, c_l1m, c_l1wb, c_l1byp, c_l1wh"))
        out.append(_ind(2, "mem_done = now"))
        out.append(_ind(2, "if reads:"))
        out.append(_ind(3, f"{c('loads')} += len(reads)"))
        out.append(_ind(3, f"hit_time = now + {self.l1_hit!r}"))
        miss_ind = 3
        iterable = "misses"
        if not self.l1_n_sets:
            out.append(_ind(3, "c_l1m += len(reads)"))
            iterable = "reads"
        else:
            out += [
                _ind(3, "misses = None"),
                _ind(3, "for line in reads:"),
                _ind(4, f"_cs = l1_sets[line % {self.bind('_NL1', self.l1_n_sets)}]"),
                _ind(4, "_d = _cs.pop(line, None)"),
                _ind(4, "if _d is not None:"),
                _ind(5, "c_l1h += 1"),
                _ind(5, "_cs[line] = _d"),
                _ind(5, "continue"),
                _ind(4, "c_l1m += 1"),
                _ind(4, f"if len(_cs) >= {self.l1_ways}:"),
                _ind(5, "if _cs.pop(next(iter(_cs))):"),
                _ind(6, "c_l1wb += 1"),
                _ind(4, "_cs[line] = False"),
                _ind(4, "if misses is None:"),
                _ind(5, "misses = [line]"),
                _ind(4, "else:"),
                _ind(5, "misses.append(line)"),
                _ind(3, "if misses is None:"),
                _ind(4, "mem_done = hit_time"),
                _ind(3, "else:"),
            ]
            miss_ind = 4
        out.append(_ind(miss_ind, f"base_time = hit_time + {self.xbar_lat!r}"))
        out.append(_ind(miss_ind, f"local_time = base_time + {self.local_extra!r}"))
        out.append(_ind(miss_ind, "local_fills = 0"))
        out.append(_ind(miss_ind, f"for line in {iterable}:"))
        body = miss_ind + 1
        self._emit_dispatch(out, body, self._emit_local_read,
                            self._emit_remote_read)
        out.append(_ind(miss_ind, "if local_fills:"))
        own = self.own_dram
        self._emit_charge(out, miss_ind + 1, own.pipe, "local_time",
                          own.line_bytes, "local_fills")
        out += [
            _ind(miss_ind + 1, f"done = _f + {own.latency_cycles!r}"),
            _ind(miss_ind + 1, "if done > mem_done:"),
            _ind(miss_ind + 2, "mem_done = done"),
        ]

        out.append(_ind(2, "if writes:"))
        out.append(_ind(3, f"{c('stores')} += len(writes)"))
        out.append(_ind(3, f"store_time = now + {self.xbar_lat!r}"))
        out.append(_ind(3, f"local_write_time = store_time + {self.own_l2_hit!r}"))
        out.append(_ind(3, "local_fills = 0"))
        if not self.l1_n_sets:
            out.append(_ind(3, "c_l1byp += len(writes)"))
        out.append(_ind(3, "for line in writes:"))
        if self.l1_n_sets:
            l1_insert = "True" if self.l1_track else "_d"
            out += [
                _ind(4, f"_cs = l1_sets[line % {self.bind('_NL1', self.l1_n_sets)}]"),
                _ind(4, "_d = _cs.pop(line, None)"),
                _ind(4, "if _d is not None:"),
                _ind(5, "c_l1h += 1"),
                _ind(5, "c_l1wh += 1"),
                _ind(5, f"_cs[line] = {l1_insert}"),
                _ind(4, "else:"),
                _ind(5, "c_l1byp += 1"),
            ]
        self._emit_dispatch(out, 4, self._emit_local_store,
                            self._emit_remote_store)
        out.append(_ind(3, "if local_fills:"))
        self._emit_charge(out, 4, own.pipe, "local_write_time",
                          own.line_bytes, "local_fills")
        out.append(_ind(2, "return mem_done"))

    def build(self):
        """Compile ``_gpm`` and bind it once; returns ``(factory, gc_list)``.

        ``walk`` reads GPM-wide and per-SM names alike with ``LOAD_DEREF``,
        so sharing the GPM's cells leaves the hot loop's bytecode as it was.
        """
        self.bind("_GC", self.gc)
        body: List[str] = []
        self._emit_walk(body)

        lines = [
            "def _gpm(ctx):",
            _ind(1, "(" + ", ".join(self.ctx_names) + ",) = ctx"),
            _ind(1, "def _factory(sm):"),
            _ind(2, "l1_sets = sm.l1._sets"),
            _ind(2, "l1_stats = sm.l1.stats"),
            _ind(2, "c_l1h = 0"),
            _ind(2, "c_l1m = 0"),
            _ind(2, "c_l1wb = 0"),
            _ind(2, "c_l1byp = 0"),
            _ind(2, "c_l1wh = 0"),
        ]
        body += [
            _ind(1, "def flush():"),
            _ind(2, "nonlocal c_l1h, c_l1m, c_l1wb, c_l1byp, c_l1wh"),
            _ind(2, "if c_l1h or c_l1m or c_l1byp:"),
            _ind(3, "st = l1_stats"),
            _ind(3, "st.hits += c_l1h"),
            _ind(3, "st.misses += c_l1m"),
            _ind(3, "st.writebacks += c_l1wb"),
            _ind(3, "st.bypasses += c_l1byp"),
            _ind(3, "st.write_hits += c_l1wh"),
            _ind(3, "c_l1h = 0"),
            _ind(3, "c_l1m = 0"),
            _ind(3, "c_l1wb = 0"),
            _ind(3, "c_l1byp = 0"),
            _ind(3, "c_l1wh = 0"),
            _ind(1, "return walk, flush"),
        ]
        lines += [_ind(1, line) for line in body]
        lines.append(_ind(1, "return _factory"))
        source = "\n".join(lines)
        namespace: dict = {}
        # The digest gives every distinct source its own file name, so
        # profilers keying by (file, line, name) keep same-index GPMs of
        # different machines apart.
        digest = hashlib.blake2b(source.encode(), digest_size=4).hexdigest()
        exec(_compile(source, f"<walker-gpm{self.gid}-{digest}>"), namespace)
        self.gc.extend([0] * len(self.counters))
        return namespace["_gpm"](tuple(self.ctx_values)), self.gc


def _make_gpm_fold(memsys, gpm_id, gc, idx, line_bytes, header_bytes):
    """Once-per-kernel fold of one GPM's shared tallies into real stats.

    Pipe byte/transfer totals are derived here: request messages are
    ``header_bytes``, responses and stores carry a line plus the header,
    and every DRAM charge is one line.
    """
    gpms = memsys._gpms
    gpm = gpms[gpm_id]
    page_table = memsys._page_table
    xbar = gpm.xbar
    l15 = gpm.l15
    routes = memsys._ring._routes
    response_bytes = line_bytes + header_bytes

    # Resolve every counter index once; cells a GPM's walkers never emit
    # (e.g. remote tallies on a single-partition system) read a shared
    # always-zero slot so the fold body stays branch-free.
    zero = len(gc)  # one extra slot appended below, never incremented
    gc.append(0)

    def at(name):
        return idx.get(name, zero)

    i_loads, i_stores = idx["loads"], idx["stores"]
    i_rld, i_rst = at("rld"), at("rst")
    i_lh, i_rh = at("lh"), at("rh")
    i_15 = (at("15h"), at("15m"), at("15wb"), at("15wh"), at("15byp"))
    per_home = []
    for home in range(len(gpms)):
        target = gpms[home]
        links = None
        if home != gpm_id:
            links = (tuple(routes[gpm_id][home]), tuple(routes[home][gpm_id]))
        per_home.append(
            (
                target.l2.stats,
                (at(f"l2h{home}"), at(f"l2m{home}"), at(f"l2wb{home}"),
                 at(f"l2wh{home}"), at(f"l2wm{home}")),
                target.dram,
                at(f"dr{home}"),
                at(f"dw{home}"),
                at(f"rgr{home}"),
                at(f"rgs{home}"),
                links,
            )
        )

    def fold():
        if not (gc[i_loads] or gc[i_stores]):
            return
        memsys.loads += gc[i_loads]
        memsys.stores += gc[i_stores]
        memsys.remote_loads += gc[i_rld]
        memsys.remote_stores += gc[i_rst]
        local_homes = gc[i_lh]
        remote_homes = gc[i_rh]
        page_table.local_resolutions += local_homes
        page_table.remote_resolutions += remote_homes
        xbar.local_requests += local_homes
        xbar.remote_requests += remote_homes
        if l15 is not None:
            stats = l15.stats
            stats.hits += gc[i_15[0]]
            stats.misses += gc[i_15[1]]
            stats.writebacks += gc[i_15[2]]
            stats.write_hits += gc[i_15[3]]
            stats.bypasses += gc[i_15[4]]
        for l2_stats, l2i, dram, i_dr, i_dw, i_rgr, i_rgs, links in per_home:
            l2_stats.hits += gc[l2i[0]]
            l2_stats.misses += gc[l2i[1]]
            l2_stats.writebacks += gc[l2i[2]]
            l2_stats.write_hits += gc[l2i[3]]
            l2_stats.write_misses += gc[l2i[4]]
            reads = gc[i_dr]
            writes = gc[i_dw]
            dram.reads += reads
            dram.writes += writes
            pipe = dram.pipe
            charges = reads + writes
            pipe.transfers += charges
            pipe.bytes_transferred += dram.line_bytes * charges
            if links is not None:
                ring_reads = gc[i_rgr]
                ring_stores = gc[i_rgs]
                if ring_reads or ring_stores:
                    for link in links[0]:
                        pipe = link.request_pipe
                        pipe.transfers += ring_reads + ring_stores
                        pipe.bytes_transferred += (
                            header_bytes * ring_reads + response_bytes * ring_stores
                        )
                    for link in links[1]:
                        pipe = link.response_pipe
                        pipe.transfers += ring_reads
                        pipe.bytes_transferred += response_bytes * ring_reads
        for i in range(len(gc)):
            gc[i] = 0

    return fold


def _make_pipe_fold(pipe_cells):
    """Once-per-kernel fold of the shared ``busy_until`` max-cells."""
    cells = tuple(pipe_cells.values())

    def fold():
        for pipe, cell in cells:
            latest = cell[0]
            if latest:
                if latest > pipe.busy_until:
                    pipe.busy_until = latest
                cell[0] = 0.0

    return fold


def build_walkers(memsys):
    """Generate one walker per SM of ``memsys``, as a list indexed by ``sm_id``.

    Registers the deferred-counter folds on ``memsys._walker_flushes`` (the
    engine runs them at the end of every kernel drain).  This is the one
    place that decides walker support: it raises :class:`UnsupportedWalk`
    for migrating placement, whose page copies interleave with line charges
    and whose homing does per-access work.  Every other system, probed or
    not, runs on the walkers.
    """
    from .memsys import LINE_BYTES, REQUEST_HEADER_BYTES

    if memsys._migrating_policy is not None:
        raise UnsupportedWalk("migrating placement")
    gpms = memsys._gpms

    pipe_cells: dict = {}
    walkers = []
    flushes = memsys._walker_flushes
    for gpm in gpms:
        generator = _GpmCodegen(
            memsys, gpm.gpm_id, pipe_cells, LINE_BYTES, REQUEST_HEADER_BYTES
        )
        factory, gc = generator.build()
        for sm in gpm.sms:
            walk, l1_flush = factory(sm)
            walkers.append(walk)
            flushes.append(l1_flush)
        flushes.append(
            _make_gpm_fold(memsys, gpm.gpm_id, gc, generator.counters,
                           LINE_BYTES, REQUEST_HEADER_BYTES)
        )
    flushes.append(_make_pipe_fold(pipe_cells))
    return walkers
