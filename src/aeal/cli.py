"""Experiment runner and socket agent.

Subcommands qq / power / train-compare / robust-u reproduce the simulation
studies to CSV (every output starts with a comment line recording the full
configuration and seed); agent runs one side of the two-process protocol
over a TCP socket on user CSVs, through protocol's role functions.

Exit codes: 0 success, 1 input error, 2 protocol error, 3 numeric failure.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import baselines, protocol
from .data import AgentView, Owner, load_agent_csv
from .errors import AealError, DimensionMismatch
from .losses import parse_family
from .messages import format_float
from .protocol import StopCriterion
from .screening import lrt_screen, screen_context, wald_screen
from .simulate import (SETTINGS, SimDesign, gen_covariates, gen_response, map_T,
                       oracle_fit, simulate, spawn_rngs)
from .sketch import check_flip_prob, check_release, make_sketch, mask_response
from .stats import auc
from .transport import Tally, connect, serve_one

_PREFIXES = {1: "error", 2: "protocol error", 3: "numeric failure"}  # by exit code


def _write_csv(path, config, header, rows):
    config = {k: v for k, v in config.items()
              if isinstance(v, (str, int, float, bool, type(None)))}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _view(sim, owner):
    own = sim.ownership
    X, names = (sim.X_a, own.a_names) if owner is Owner.A else (sim.X_b, own.b_names)
    return AgentView(design=X, column_names=names, owner=owner)


# -- the simulation studies: qq, power, robust-u, train-compare ----------------


def _replications(args, designs):
    """(setting, hypothesis, fam, sim, rng) for every replication of each design
    in turn; generators are spawned afresh from the seed for each design."""
    fam = parse_family(args.family)
    unknown = sorted({setting for setting, _ in designs} - SETTINGS.keys())
    if unknown:
        raise AealError(f"unknown settings {unknown}; known: {sorted(SETTINGS)}")
    if args.reps < 1 or args.n < 1:
        raise AealError("--reps and --n must be at least 1")
    for setting, hypothesis in designs:
        design = SimDesign(setting=setting, n=args.n, rho=args.rho, family=fam)
        for rng in spawn_rngs(args.seed, args.reps):
            yield setting, hypothesis, fam, simulate(design, rng, hypothesis=hypothesis), rng


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise AealError(f"--alpha must lie strictly in (0, 1), got {alpha}")


def _screens(args, designs, cells):
    """(setting, hypothesis, decisions) per replication: one decision per (t, noise)
    cell in order, each on a sketch of sim.X_b drawn after the data from its rng."""
    if not cells:
        raise AealError("the screen grid is empty: no (t, noise) cell to screen")
    if min(t for t, _ in cells) < 1:
        raise AealError("every sketch needs t >= 1 columns")
    _check_alpha(args.alpha)
    screen = lrt_screen if args.test == "lrt" else wald_screen
    for setting, hypothesis, fam, sim, rng in _replications(args, designs):
        view_a = _view(sim, Owner.A)
        context = screen_context(view_a, sim.y, fam)
        decisions = [
            screen(view_a, sim.y, make_sketch(sim.X_b, t, rng, noise_scale=noise), fam,
                   alpha=args.alpha, context=context).decision
            for t, noise in cells]
        del sim, view_a, context  # one replication alive: it dies before the next is drawn
        yield setting, hypothesis, decisions


def cmd_qq(args):
    cells = [(t, args.laplace_scale) for t in range(1, args.t_max + 1)]
    screens = _screens(args, [(args.setting, "h0")], cells)
    rows = [(rep, t, format_float(d.p_value)) for rep, (*_, decisions) in enumerate(screens)
            for (t, _), d in zip(cells, decisions)]
    _write_csv(args.out, vars(args), ("replication", "t", "p_value"), rows)
    return 0


def _list_flag(flag, text, kind):
    """The comma-separated entries of a list flag, each converted by kind; the
    flag itself stays a string, as the CSV's configuration line records it."""
    try:
        return [kind(entry) for entry in text.split(",")]
    except ValueError as exc:  # its message quotes the entry
        raise AealError(f"{flag}: {exc}") from None


def cmd_power(args):
    settings = args.settings.split(",")
    cells = [(t, noise) for t in _list_flag("--t-list", args.t_list, int)
             for noise in _list_flag("--noise-list", args.noise_list, float)]
    rejects = np.zeros((len(settings), len(cells)))  # per setting and cell
    for k, (*_, decisions) in enumerate(_screens(args, [(s, "h1") for s in settings], cells)):
        rejects[k // args.reps] += [d.reject for d in decisions]
    rows = [(setting, args.n, t, noise, format_float(count / args.reps))
            for setting, counts in zip(settings, rejects.tolist())
            for (t, noise), count in zip(cells, counts)]
    _write_csv(args.out, vars(args),
               ("setting", "n", "t", "noise_scale", "reject_rate"), rows)
    return 0


def cmd_robust_u(args):
    scenarios = ["h0", "h1"] if args.scenario == "both" else [args.scenario]
    matches = dict.fromkeys(scenarios, 0)
    for _, scenario, decisions in _screens(args, [(args.setting, h) for h in scenarios],
                                           [(args.t, args.noise)] * args.u_count):
        matches[scenario] += len({d.reject for d in decisions}) <= 1  # all agree
    rows = [(scenario, args.noise, m) for scenario, m in matches.items()]
    _write_csv(args.out, vars(args), ("scenario", "noise", "matches_out_of_reps"), rows)
    return 0


def _metric_curves(sim, fam, rounds, eval_size, rng, tune_grid, rho=0.0):
    """Per-round metric for the oracle, the alternating protocol, and the two
    tuned baselines, each scored from its pooled coefficients. Logistic uses
    evaluation AUC; other families use the coefficient distance to the oracle."""
    view_a, view_b = _view(sim, Owner.A), _view(sim, Owner.B)
    oracle = oracle_fit(sim.X, sim.y, fam)
    use_auc = fam.kind == "logistic"
    if use_auc:
        X_eval = sim.X
        if eval_size != sim.X.shape[0]:
            X_eval = gen_covariates(eval_size, sim.X.shape[1], rho, rng)
        y_eval = gen_response(fam, X_eval, sim.beta_true, rng)

    def metric(beta_a, beta_b):
        pooled = map_T(beta_a, beta_b, sim.ownership)
        if use_auc:
            return auc(X_eval @ pooled, y_eval)
        return float(np.linalg.norm(pooled - oracle.beta))

    oracle_metric = auc(X_eval @ oracle.beta, y_eval) if use_auc else 0.0

    # Stopping once beta_A repeats exactly cuts no round short: each fit returned
    # has converged, so once beta_A^k = beta_A^(k-1), Bob's next fit starts where he
    # already converged for the same offset and takes no Newton step; so does
    # Alice's, and every later entry equals entry k (the caller holds the last one).
    stop = StopCriterion(offset_tol=None, coef_tol=0.0, max_rounds=rounds)
    # through the module, so a hook on protocol.train sees the call
    history = protocol.train(view_a, sim.y, view_b, fam, stop=stop).history
    aeal_curve = [metric(ba, bb) for ba, bb in history]

    curves = {"oracle": [oracle_metric] * (rounds + 1), "aeal": aeal_curve}
    sign = -1.0 if use_auc else 1.0  # tuning minimizes; a higher AUC is better
    for algo in (baselines.FEDSGD, baselines.FEDBCD):
        best = baselines.tune_step(view_a, sim.y, view_b, fam, algo, tune_grid, rounds,
                                   score_fn=lambda s: sign * metric(s.beta_a, s.beta_b))
        curves[algo] = [metric(ba, bb) for ba, bb in best.history]
    return curves


def cmd_train_compare(args):
    if args.grid_size < 1 or args.rounds < 0:
        raise AealError("--grid-size must be at least 1 and --rounds at least 0")
    grid = baselines.default_step_grid(count=args.grid_size)
    sums = {}
    for _, _, fam, sim, rng in _replications(args, [(args.setting, "h1")]):
        curves = _metric_curves(sim, fam, args.rounds, args.eval_size, rng, grid,
                                rho=args.rho)
        del sim  # dies before the next replication is drawn
        for method, curve in curves.items():
            acc = sums.setdefault(method, np.zeros(args.rounds + 1))
            acc[:len(curve)] += np.asarray(curve)
            acc[len(curve):] += curve[-1]  # hold the last value if stopped early
    rows = [(method, rnd, format_float(val)) for method in sorted(sums)
            for rnd, val in enumerate(sums[method] / args.reps)]
    _write_csv(args.out, vars(args), ("method", "round", "metric"), rows)
    return 0


# -- agent -------------------------------------------------------------------


def _agent_channel(args, tally):
    me, peer = ("A", "B") if args.role == "alice" else ("B", "A")
    if args.listen:
        host, port = args.listen.rsplit(":", 1)
        return serve_one(host or "127.0.0.1", int(port), name=me, peer=peer, recorder=tally)
    host, port = args.connect.rsplit(":", 1)
    return connect(host, int(port), name=me, peer=peer, recorder=tally)


def _print_json(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def cmd_agent(args):
    if bool(args.listen) == bool(args.connect):
        raise AealError("pass exactly one of --listen or --connect")
    if args.mode == "predict" and not args.predict_data:
        raise AealError("--mode predict needs --predict-data")
    if min(args.screen_rows, args.max_rounds) < 0 or args.t < 1:
        raise AealError("--screen-rows and --max-rounds must be at least 0 and --t at least 1")
    check_release(args.laplace_scale, args.epsilon, args.clip_bound)
    _check_alpha(args.alpha)
    if not 0.0 <= args.ridge < np.inf:  # NaN fails too
        raise AealError(f"--ridge must be finite and nonnegative, got {args.ridge}")
    fam = parse_family(args.family)
    if args.mask_flip is not None:  # refused before connecting
        check_flip_prob(args.mask_flip)
        if fam.kind != "logistic":
            raise AealError("--mask-flip predictions unmask logistic probabilities only, "
                            "so masking needs the logistic family")
    tally = Tally()  # the agent prints counts only, so it keeps no line
    role_owner = Owner.A if args.role == "alice" else Owner.B
    response = args.response_column if args.role == "alice" else None
    _, view, y = load_agent_csv(args.data, args.id_column, role_owner,
                                response_column=response)
    chan = _agent_channel(args, tally)
    try:
        if args.mode == "screen":
            return _agent_screen(args, fam, view, y, chan)
        return _agent_train(args, fam, view, y, chan, tally)
    finally:
        chan.close()


def _agent_screen(args, fam, view, y, chan):
    if args.role == "bob":
        result = protocol.run_role(protocol.offer_sketch(
            view, fam, chan, min(args.t, view.design.shape[1]),
            np.random.default_rng(args.seed), rows=args.screen_rows or None,
            noise_scale=args.laplace_scale, epsilon=args.epsilon, c2=args.clip_bound))
        _print_json({"role": "bob", "mode": "screen", "reject": result.reject,
                     "p_value": format_float(result.p_value)})
        return 0
    report = protocol.run_role(protocol.screen_offer(view, y, fam, chan, test=args.test,
                                                     alpha=args.alpha, ridge=args.ridge))
    d = report.decision
    _print_json({"role": "alice", "mode": "screen", "statistic": format_float(d.statistic),
                 "df": d.df, "p_value": format_float(d.p_value), "reject": d.reject,
                 "alpha": format_float(d.alpha), "n_used": report.n_used,
                 "identified_rank": report.identified_rank, "degenerate": report.degenerate,
                 "iterations": report.fit.iterations})
    return 0


def _agent_train(args, fam, view, y, chan, tally):
    if args.role == "alice":
        stop = replace(StopCriterion.default(view.n), max_rounds=args.max_rounds)
        if args.mask_flip is not None:  # Alice's release: she shares flipped labels
            y = mask_response(y, args.mask_flip, np.random.default_rng(args.seed))
        res = protocol.run_alice(view, y, fam, chan, stop=stop, ridge=args.ridge)
        beta, cov = res["beta_a"], res["cov_a"]
    else:
        res = protocol.run_bob(view, fam, chan)
        beta, cov = res["beta_b"], res["cov_b"]
    _print_traffic(args, tally, beta=[format_float(v) for v in beta],
                   rounds=res["rounds"], stop_reason=res["stop_reason"])
    if args.mode != "predict":
        return 0
    view_new = _predict_view(args, view)
    if args.role == "bob":  # one contribution message carries all of Bob's rows
        protocol.run_role(protocol.send_contribution(view_new, fam, chan, beta, cov))
    else:  # Alice trained on flipped labels when mask_flip is set
        pred = protocol.run_role(protocol.joint_prediction(view_new, fam, chan, beta, cov,
                                                           args.alpha, args.mask_flip))
        for i in range(view_new.n):
            _print_json({"row": i, **{k: format_float(getattr(pred, k)[i])
                                      for k in ("nu", "point", "lo", "hi")}})
    _print_traffic(args, tally)  # the whole session's traffic, predict phase included
    return 0


def _print_traffic(args, tally, **fields):
    _print_json({"role": args.role, "mode": args.mode, **fields,
                 "rounds_transmitted": tally.vector_sends,
                 "bytes_transmitted": tally.bytes_transmitted})


def _predict_view(args, view):
    """This side's predict file, checked against its training columns; the
    predict step's handshake checks that both sides predict the same row ids."""
    _, view_new, _ = load_agent_csv(args.predict_data, args.id_column, view.owner)
    if view_new.column_names != view.column_names:
        raise DimensionMismatch(f"predict columns {list(view_new.column_names)} differ "
                                f"from the training columns {list(view.column_names)}")
    return view_new


# -- parser -------------------------------------------------------------------


def _add_common(p, screens=True):
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--family", default="logistic")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--out", required=True)
    if screens:  # train-compare runs no screen
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--test", choices=("wald", "lrt"), default="wald")


class _Parser(argparse.ArgumentParser):
    """Reports a usage mistake as an input error instead of exiting with 2."""

    def error(self, message):
        raise AealError(f"{self.prog}: {message}")


def _read_presets(path):
    """The --config file's flag presets: one JSON object, keys spelt as flags."""
    try:
        with open(path, encoding="utf-8") as fh:
            presets = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AealError(f"--config {path}: {exc}") from None
    if not isinstance(presets, dict):
        raise AealError(f"--config {path} holds no JSON object")
    return {k.replace("-", "_"): v for k, v in presets.items()}


def build_parser(presets=None):
    parser = _Parser(prog="aeal")
    parser.add_argument("--config", help="JSON file whose keys preset any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qq", help="null-hypothesis p-values to CSV")
    _add_common(p)
    p.add_argument("--setting", default="s2")
    p.add_argument("--laplace-scale", type=float, default=0.5)
    p.add_argument("--t-max", type=int, default=5)
    p.set_defaults(func=cmd_qq)

    p = sub.add_parser("power", help="rejection rates by (t, noise) to CSV")
    _add_common(p)
    p.add_argument("--settings", default="s1,s2,s3")
    p.add_argument("--t-list", default="1,2,3,4,5")
    p.add_argument("--noise-list", default="0,0.1,0.5")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("train-compare", help="metric vs rounds for all methods")
    _add_common(p, screens=False)
    p.add_argument("--setting", default="s2")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--eval-size", type=int, default=100000)
    p.add_argument("--grid-size", type=int, default=20)
    p.set_defaults(func=cmd_train_compare)

    p = sub.add_parser("robust-u", help="decision agreement across projections")
    _add_common(p)
    p.add_argument("--setting", default="s2")
    p.add_argument("--scenario", choices=("h0", "h1", "both"), default="both")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--u-count", type=int, default=6)
    p.set_defaults(func=cmd_robust_u)

    p = sub.add_parser("agent", help="run one side of the socket protocol")
    p.add_argument("--role", choices=("alice", "bob"), required=True)
    p.add_argument("--listen")
    p.add_argument("--connect")
    p.add_argument("--data", required=True)
    p.add_argument("--id-column", default="id")
    p.add_argument("--response-column", default="y")
    p.add_argument("--family", default="logistic")
    p.add_argument("--mode", choices=("screen", "train", "predict"), default="screen")
    p.add_argument("--test", choices=("wald", "lrt"), default="wald")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--t", type=int, default=3,
                   help="sketch columns; clamped to B's column count")
    p.add_argument("--screen-rows", type=int, default=0,
                   help="screen on the leading N rows only (0 = all)")
    p.add_argument("--laplace-scale", type=float, default=0.0)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--clip-bound", type=float)
    p.add_argument("--mask-flip", type=float)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--max-rounds", type=int, default=200)
    p.add_argument("--predict-data")
    p.set_defaults(func=cmd_agent)

    presets = presets or {}
    dests = {p: {a.dest for a in p._actions} for p in sub.choices.values()}
    unknown = sorted(presets.keys() - set().union(*dests.values()))
    if unknown:
        raise AealError(f"--config keys {unknown} match no flag of any subcommand")
    for p, names in dests.items():
        p.set_defaults(**{k: v for k, v in presets.items() if k in names})
    return parser


def main(argv=None):
    boot = _Parser(prog="aeal", add_help=False)
    boot.add_argument("--config")
    try:
        known, _ = boot.parse_known_args(argv)
        presets = _read_presets(known.config) if known.config else None
        args = build_parser(presets).parse_args(argv)
        return args.func(args)
    except (AealError, np.linalg.LinAlgError) as exc:
        code = getattr(exc, "exit_code", 3)  # LinAlgError is a numeric failure
        print(f"{_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
