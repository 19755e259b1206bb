"""The system under test, run by the benchmark as a process of its own.

Usage (from the benchmark, not by hand)::

    python3 perfbench/sut.py '<json config>'

The config names the mode (``batch``, ``serve`` or ``refresh``), the
feed format (``json`` or ``jsonl``), the data directory holding the
generated inputs, and the repository's ``src`` directory.  Set-up (platform, warm pool, first run, HTTP
server) happens before the process writes its ``ready`` line; then it
answers one JSON command per stdin line with one JSON line on stdout:

* ``cycle``   — batch mode: create, run and publish a fresh dashboard;
* ``begin``   — start of a measured phase: the program's CPU seconds;
* ``snapshot`` — every endpoint's columns and version, for the oracle;
* ``trace``   — install the per-layer spans (:mod:`layers`);
* ``side``    — per-layer side measurements (decode, sequential run);
* ``stats``   — span summary, metrics-registry snapshot, peak RSS,
  the program's CPU seconds;
* ``quit``    — drain and exit.

The program's CPU seconds are the process's and its reaped children's,
less the CPU time this process spent encoding control-channel replies,
which carry the oracle's copies of the endpoints (``harness_cpu``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Pool workers are reaped (waitpid) when the pool closes; the
    # children figure is the largest of them.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"server_mb": own, "worker_mb": kids}


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _columns(dashboard) -> dict:
    """Every endpoint's columns, for the oracle.

    The column lists are the tables' own (no copy), so the only cost
    is encoding the reply, which ``main`` counts as harness CPU time;
    row dicts are built on the generator's side.
    """
    out = {}
    for ep in dashboard.endpoint_names():
        table = dashboard.endpoint(ep)
        out[ep] = {name: table.column(name) for name in table.schema.names}
    return out


class SystemUnderTest:
    def __init__(self, config: dict):
        import inputs
        from repro import Platform
        from repro.workloads import ipl

        self.config = config
        self.mode = config["mode"]
        self.data_dir = config["data_dir"]
        self.flow = inputs.FLOWS[config["feed"]]
        self.platform = Platform()
        self.trace = None
        self.server = None
        self.cycles = 0
        #: CPU seconds spent on work only the benchmark asks for
        self.harness_cpu = 0.0
        self._dictionaries = ipl.dictionaries()

    def _inline(self) -> dict:
        from oracle import dimension_tables

        return dimension_tables()

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> dict:
        if self.mode == "batch":
            self.platform.warm_pool(workers=self.config["parallelism"])
            self.cmd_cycle()
            return {}
        self.platform.create_dashboard(
            "ipl", self.flow, data_dir=self.data_dir,
            inline_tables=self._inline(), dictionaries=self._dictionaries,
        )
        self.platform.run_dashboard("ipl")
        if self.mode == "serve":
            from repro.workloads import IPL_CONSUMPTION_FLOW

            self.platform.create_dashboard("clash", IPL_CONSUMPTION_FLOW)
            self.platform.run_dashboard("clash")
        from repro.server.app import serve
        from repro.server.serving import ServingConfig

        self.server = serve(
            self.platform, port=0,
            config=ServingConfig(workers=self.config["workers"]),
        ).start_background()
        return {"port": self.server.server_address[1]}

    # -- commands ---------------------------------------------------------------
    def cmd_cycle(self, rows: bool = False) -> dict:
        """One batch cycle: create (parse + compile), run, publish."""
        platform = self.platform
        previous = f"ipl_{self.cycles}"
        if previous in platform.dashboards:
            # delete_dashboard leaves published objects behind, so the
            # next cycle's publish would conflict: unpublish first.
            for name in platform.catalog.names():
                platform.catalog.unpublish(name, previous)
            platform.delete_dashboard(previous)
        self.cycles += 1
        name = f"ipl_{self.cycles}"
        start = time.perf_counter()
        dashboard = platform.create_dashboard(
            name, self.flow, data_dir=self.data_dir,
            inline_tables=self._inline(), dictionaries=self._dictionaries,
        )
        report = platform.run_dashboard(
            name, engine="distributed", executor="processes",
            parallelism=self.config["parallelism"], pool="auto",
        )
        seconds = time.perf_counter() - start
        out = {"seconds": seconds, "published": sorted(report.published)}
        if rows:
            out["endpoints"] = _columns(dashboard)
        return out

    def cmd_snapshot(self) -> dict:
        """Every endpoint of the served dashboard: columns and versions."""
        dashboard = self.platform.get_dashboard("ipl")
        versions = {ep: dashboard.endpoint_version(ep)
                    for ep in dashboard.endpoint_names()}
        return {"endpoints": _columns(dashboard), "versions": versions}

    def program_cpu(self) -> float:
        return _cpu_seconds() - self.harness_cpu

    def cmd_begin(self) -> dict:
        """Start of a measured phase: the program's CPU seconds so far.

        In batch mode the warm pool is replaced first, so that the
        workers reaped at ``stats`` ran only this phase's cycles and
        their CPU time (visible once reaped) belongs to it.
        """
        if self.mode == "batch":
            self.platform.close_pool()
            self.platform.warm_pool(workers=self.config["parallelism"])
        return {"cpu_s": self.program_cpu()}

    def cmd_trace(self) -> dict:
        from layers import LayerTrace

        self.trace = LayerTrace().install()
        return {"registry": self.platform.observability.metrics.as_dict()}

    def cmd_side(self) -> dict:
        """Side measurements on the workload's own input."""
        from repro.dsl import parse_flow_file

        source = parse_flow_file(self.flow).data["ipltweets"]
        path = Path(self.data_dir) / source.config["source"]
        fmt = self.platform.formats.get(source.config["format"])
        payload = path.read_bytes()
        decode = []
        for _ in range(3):
            start = time.perf_counter()
            fmt.decode(payload, source.schema)
            decode.append(time.perf_counter() - start)
        out = {"decode_s": decode}
        if self.mode == "batch":
            # The same plan at parallelism 1 (sequential engine path).
            name = "ipl_sequential"
            self.trace.phase = "sequential"
            try:
                for pub in self.platform.catalog.names():
                    self.platform.catalog.unpublish(pub, f"ipl_{self.cycles}")
                self.platform.create_dashboard(
                    name, self.flow, data_dir=self.data_dir,
                    inline_tables=self._inline(),
                    dictionaries=self._dictionaries,
                )
                self.platform.run_dashboard(
                    name, engine="distributed", parallelism=1,
                )
            finally:
                self.trace.phase = ""
        return out

    def cmd_stats(self) -> dict:
        out = {
            "registry": self.platform.observability.metrics.as_dict(),
            "trace": self.trace.summary() if self.trace else None,
        }
        if self.mode == "batch":
            # Close the pool so its workers are reaped and their peak
            # RSS is visible to getrusage(RUSAGE_CHILDREN).
            self.platform.close_pool()
        out["rss"] = _peak_rss_mb()
        out["cpu_s"] = self.program_cpu()
        return out

    def cmd_quit(self) -> dict:
        if self.server is not None:
            self.server.shutdown(drain_timeout=5.0)
        self.platform.close_pool()
        return {"bye": True}


def main() -> int:
    config = json.loads(sys.argv[1])
    sys.path.insert(0, config["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Replies own the real stdout; anything the program prints goes to
    # stderr instead of corrupting the protocol.
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr
    sut = SystemUnderTest(config)
    ready = sut.setup()
    replies.write(json.dumps({"ready": True, "pid": os.getpid(), **ready}) + "\n")
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        reply = getattr(sut, f"cmd_{name}")(**command)
        started = time.thread_time()
        replies.write(json.dumps(reply, default=str) + "\n")
        sut.harness_cpu += time.thread_time() - started
        if name == "quit":
            break
    else:
        sut.cmd_quit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
