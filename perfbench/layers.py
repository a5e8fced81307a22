"""Where the tracer hooks into the aeal layers, and the per-layer metrics.

Each hook replaces the attribute a caller looks up, so the span covers the
call as that caller makes it. Spans are named ``<module>.<function>`` after
the module that defines the function. Counters ride on the hooks: wire
accounting is taken from the message object at encode time (its type, not
a substring of the line), and the program's own byte counters are added
for the cross-check.
"""

import importlib
import statistics

from workloads import payload_doubles

# (name, unit, better); the list BENCHMARK.json declares under per_layer
PER_LAYER = [
    ("messages.encode.calls", "count", "lower"),
    ("messages.encode.self_s", "s", "lower"),
    ("messages.encode.share", "ratio", "lower"),
    ("messages.bytes_per_double", "B", "lower"),
    ("messages.decode.calls", "count", "lower"),
    ("messages.decode.self_s", "s", "lower"),
    ("messages.decode.share", "ratio", "lower"),
    ("transport.send.self_s", "s", "lower"),
    ("transport.recv_wait_s", "s", "lower"),
    ("transport.transcript_mb", "MB", "lower"),
    ("transport.vector_sends", "count", "lower"),
    ("transport.wire_bytes", "B", "lower"),
    ("protocol.run_alice.self_s", "s", "lower"),
    ("protocol.run_bob.self_s", "s", "lower"),
    ("protocol.rounds", "count", "lower"),
    ("solver.fit_offset.calls", "count", "lower"),
    ("solver.fit_offset.self_s", "s", "lower"),
    ("solver.fit_offset.share", "ratio", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.sandwich_pieces.self_s", "s", "lower"),
    ("solver.sandwich_pieces.share", "ratio", "lower"),
    ("screening.wald_screen.calls", "count", "lower"),
    ("screening.wald_screen.self_s", "s", "lower"),
    ("screening.wald_screen.p90_ms", "ms", "lower"),
    ("screening.fallback_ratio", "ratio", "lower"),
    ("stats.chi2_sf.self_s", "s", "lower"),
    ("stats.auc.calls", "count", "lower"),
    ("stats.auc.self_s", "s", "lower"),
    ("stats.auc.share", "ratio", "lower"),
    ("baselines.train_baseline.calls", "count", "lower"),
    ("baselines.train_baseline.self_s", "s", "lower"),
    ("baselines.train_baseline.share", "ratio", "lower"),
    ("sketch.make_sketch.self_s", "s", "lower"),
    ("simulate.simulate.self_s", "s", "lower"),
    ("simulate.oracle_fit.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# spans that run during set-up in some workloads and inside units in others
SETUP_SPANS = ("sketch.make_sketch", "simulate.simulate", "simulate.oracle_fit")


def _encoded(args, kwargs, line):
    msg = args[0]
    kind = type(msg).__name__
    size = len(line) + 1  # json.dumps escapes to ASCII, so chars = bytes; plus newline
    doubles = payload_doubles(msg)
    counts = {"wire.bytes": size, f"wire.sends.{kind}": 1}
    if doubles:
        counts["wire.payload_bytes"] = size
        counts["wire.payload_doubles"] = doubles
    return counts


def _session(args, kwargs, sess):
    return {"reported.bytes": sess.bytes_transmitted,
            "transcript.chars": sum(len(line) for _, line in sess.transcript)}


def _fit(args, kwargs, res):
    return {"solver.newton_iters": res.iterations}


def _screen(args, kwargs, report):
    return {"screening.fallback": int(report.degenerate)}


def _rounds(args, kwargs, res):
    return {"protocol.rounds": res["rounds"]}


def install(tracer):
    """Wrap every layer boundary the workloads cross."""
    mod = {name: importlib.import_module("aeal." + name) for name in (
        "baselines", "cli", "protocol", "screening", "simulate", "sketch", "stats",
        "transport")}
    transport, protocol, screening, cli = (mod["transport"], mod["protocol"],
                                           mod["screening"], mod["cli"])
    hooks = [
        (transport, "encode", "messages.encode", _encoded),
        (transport, "decode", "messages.decode", None),
        (transport.LocalChannel, "send", "transport.send", None),
        (transport.LocalChannel, "recv", "transport.recv", None),
        (transport.SocketChannel, "send", "transport.send", None),
        (transport.SocketChannel, "recv", "transport.recv", None),
        (transport, "serve_one", "transport.serve_one", None),
        (transport, "connect", "transport.connect", None),
        (protocol, "train", "protocol.train", _session),
        (protocol, "run_alice", "protocol.run_alice", _rounds),
        (protocol, "run_bob", "protocol.run_bob", None),
        (protocol, "fit_offset", "solver.fit_offset", _fit),
        (screening, "fit_offset", "solver.fit_offset", _fit),
        (protocol, "sandwich_pieces", "solver.sandwich_pieces", None),
        (screening, "sandwich_pieces", "solver.sandwich_pieces", None),
        (screening, "wald_screen", "screening.wald_screen", _screen),
        (cli, "wald_screen", "screening.wald_screen", _screen),
        (mod["stats"], "chi2_sf", "stats.chi2_sf", None),
        (cli, "auc", "stats.auc", None),
        (mod["baselines"], "train_baseline", "baselines.train_baseline", _session),
        (mod["sketch"], "make_sketch", "sketch.make_sketch", None),
        (cli, "make_sketch", "sketch.make_sketch", None),
        (mod["simulate"], "simulate", "simulate.simulate", None),
        (cli, "simulate", "simulate.simulate", None),
        (mod["simulate"], "oracle_fit", "simulate.oracle_fit", None),
        (cli, "oracle_fit", "simulate.oracle_fit", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, count in hooks:
        tracer.wrap(owner, attr, name, count=count)


def layer_metrics(tracer, units, setup_unit, overhead):
    """Per-unit means over the traced units; shares are of the total self time
    of every span on both threads. Set-up spans count once, on top."""
    n = len(units)
    spans = tracer.self_times(set(units))
    setup = tracer.self_times({setup_unit})
    total_self = sum(self_s for _, self_s, _ in spans.values())

    def calls(name):
        return spans.get(name, (0, 0.0, []))[0] / n

    def self_s(name):
        return spans.get(name, (0, 0.0, []))[1] / n

    def share(name):
        return self_s(name) * n / total_self if total_self else 0.0

    def count(key):
        return tracer.counter(key, set(units)) / n

    out = {}
    for name in ("messages.encode", "messages.decode", "solver.fit_offset", "stats.auc",
                 "baselines.train_baseline"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.share"] = share(name)
    doubles = count("wire.payload_doubles")
    out["messages.bytes_per_double"] = (count("wire.payload_bytes") / doubles
                                        if doubles else 0.0)
    out["transport.send.self_s"] = self_s("transport.send")
    out["transport.recv_wait_s"] = self_s("transport.recv")
    out["transport.transcript_mb"] = count("transcript.chars") / 1e6
    out["transport.vector_sends"] = (count("wire.sends.Offset")
                                     + count("wire.sends.GradShare"))
    out["transport.wire_bytes"] = count("wire.bytes")
    out["protocol.run_alice.self_s"] = self_s("protocol.run_alice")
    out["protocol.run_bob.self_s"] = self_s("protocol.run_bob")
    out["protocol.rounds"] = count("protocol.rounds")
    out["solver.newton_iters"] = count("solver.newton_iters")
    out["solver.sandwich_pieces.self_s"] = self_s("solver.sandwich_pieces")
    out["solver.sandwich_pieces.share"] = share("solver.sandwich_pieces")
    screens = spans.get("screening.wald_screen", (0, 0.0, []))
    out["screening.wald_screen.calls"] = screens[0] / n
    out["screening.wald_screen.self_s"] = screens[1] / n
    out["screening.wald_screen.p90_ms"] = _p90(screens[2]) * 1e3
    out["screening.fallback_ratio"] = (count("screening.fallback") * n / screens[0]
                                       if screens[0] else 0.0)
    out["stats.chi2_sf.self_s"] = self_s("stats.chi2_sf")
    for name in SETUP_SPANS:
        out[f"{name}.self_s"] = self_s(name) + setup.get(name, (0, 0.0, []))[1]
    out["cli.self_s"] = self_s("cli.main")
    out["trace.overhead"] = overhead
    return out


def _p90(durations):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0]
    return statistics.quantiles(durations, n=10, method="inclusive")[-1]
