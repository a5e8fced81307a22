"""Experiment runner and socket agent.

Subcommands qq / power / train-compare / robust-u reproduce the simulation
studies to CSV (every output starts with a comment line recording the full
configuration and seed); agent runs one side of the two-process protocol
over a TCP socket on user CSVs.

Exit codes: 0 success, 2 protocol error, 3 numeric failure.
"""

import argparse
import json
import sys

import numpy as np

from . import baselines
from .data import AgentView, Owner, load_agent_csv
from .errors import (AealError, BadDimensions, DomainError, OneClassOnly, ProtocolError,
                     RankDeficientAugmented, RankDeficientView, SingularCovarianceBlock,
                     SingularHessian, SingularVariance, SolverFailure, TransportFailure)
from .losses import parse_family
from .messages import (PredictContribution, ScreenResult, SketchOffer,
                       format_float)
from .protocol import StopCriterion, joint_interval, run_alice, run_bob
from .screening import lrt_screen, screen_context, wald_screen
from .simulate import (SimData, SimDesign, gen_covariates, gen_response, map_T,
                       oracle_fit, simulate, spawn_rngs)
from .sketch import SketchPackage, make_sketch
from .stats import auc
from .transport import Tally, connect, serve_one

_NUMERIC_ERRORS = (SolverFailure, SingularHessian, SingularCovarianceBlock,
                   RankDeficientAugmented, RankDeficientView, SingularVariance,
                   OneClassOnly, DomainError, np.linalg.LinAlgError)


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


def _screen(view_a, context, sim, t, noise_scale, fam, args, rng):
    # the sketch reads sim.X_b directly: screening needs no view of B
    sketch = make_sketch(sim.X_b, t, rng, noise_scale=noise_scale)
    screen = lrt_screen if args.test == "lrt" else wald_screen
    return screen(view_a, sim.y, sketch, fam, alpha=args.alpha, context=context)


# -- qq -------------------------------------------------------------------


def cmd_qq(args):
    fam = parse_family(args.family)
    design = SimDesign(setting=args.setting, n=args.n, rho=args.rho, family=fam)
    rngs = spawn_rngs(args.seed, args.reps)
    rows = []
    for rep, rng in enumerate(rngs):
        sim = simulate(design, rng, hypothesis="h0")
        view_a = _view(sim, Owner.A)
        context = screen_context(view_a, sim.y, fam)
        for t in range(1, args.t_max + 1):
            report = _screen(view_a, context, sim, t, args.laplace_scale, fam, args, rng)
            rows.append((rep, t, format_float(report.decision.p_value)))
    _write_csv(args.out, vars(args), ("replication", "t", "p_value"), rows)
    return 0


# -- power ----------------------------------------------------------------


def cmd_power(args):
    fam = parse_family(args.family)
    settings = args.settings.split(",")
    t_values = [int(v) for v in args.t_list.split(",")]
    noises = [float(v) for v in args.noise_list.split(",")]
    rows = []
    for setting in settings:
        design = SimDesign(setting=setting, n=args.n, rho=args.rho, family=fam)
        rngs = spawn_rngs(args.seed, args.reps)
        rejects = {(t, s): 0 for t in t_values for s in noises}
        for rng in rngs:
            sim = simulate(design, rng, hypothesis="h1")
            view_a = _view(sim, Owner.A)
            context = screen_context(view_a, sim.y, fam)
            for t in t_values:
                for noise in noises:
                    report = _screen(view_a, context, sim, t, noise, fam, args, rng)
                    rejects[(t, noise)] += int(report.decision.reject)
        for t in t_values:
            for noise in noises:
                rows.append((setting, args.n, t, noise,
                             format_float(rejects[(t, noise)] / args.reps)))
    _write_csv(args.out, vars(args),
               ("setting", "n", "t", "noise_scale", "reject_rate"), rows)
    return 0


# -- train-compare ---------------------------------------------------------


def _metric_curves(sim, fam, rounds, eval_size, rng, tune_grid, rho=0.0):
    """Per-round metric for the oracle, the alternating protocol, and the two
    tuned baselines. Logistic uses evaluation AUC; other families use the
    coefficient distance to the oracle in the pooled space."""
    from .protocol import train  # looked up per call: perfbench hooks protocol.train

    view_a, view_b = _view(sim, Owner.A), _view(sim, Owner.B)
    oracle = oracle_fit(sim.X, sim.y, fam)
    use_auc = fam.kind == "logistic"
    if use_auc:
        X_eval = sim.X
        if eval_size != sim.X.shape[0]:
            X_eval = gen_covariates(eval_size, sim.X.shape[1], rho, rng)
        ev = SimData(X=X_eval, y=gen_response(fam, X_eval, sim.beta_true, rng),
                     beta_true=sim.beta_true, ownership=sim.ownership)

        def metric(beta_a, beta_b):
            return auc(ev.X_a @ beta_a + ev.X_b @ beta_b, ev.y)

        oracle_metric = auc(ev.X @ oracle.beta, ev.y)
    else:
        def metric(beta_a, beta_b):
            return float(np.linalg.norm(map_T(beta_a, beta_b, sim.ownership) - oracle.beta))

        oracle_metric = 0.0

    # Stopping once beta_A repeats exactly cuts no round short: each fit returned
    # has converged, so once beta_A^k = beta_A^(k-1), Bob's next fit starts where he
    # already converged for the same offset and takes no Newton step; so does
    # Alice's, and every later entry equals entry k (the caller holds the last one).
    stop = StopCriterion(offset_tol=None, coef_tol=0.0, max_rounds=rounds)
    history = train(view_a, sim.y, view_b, fam, stop=stop).history  # the transcript is freed
    aeal_curve = [metric(ba, bb) for ba, bb in history]

    curves = {"oracle": [oracle_metric] * (rounds + 1), "aeal": aeal_curve}
    sign = -1.0 if use_auc else 1.0  # tuning minimizes; a higher AUC is better

    def score(sess_b):
        return sign * metric(sess_b.beta_a, sess_b.beta_b)

    for algo in (baselines.FEDSGD, baselines.FEDBCD):
        cfg = baselines.BaselineConfig(algorithm=algo, decay="sqrt", batch=None,
                                       q_local=5, mu=0.1, max_rounds=rounds)
        _, best = baselines.tune_step(view_a, sim.y, view_b, fam, cfg, tune_grid,
                                      rounds, score_fn=score)
        curves[algo] = [metric(ba, bb) for ba, bb in best.history]
    return curves


def cmd_train_compare(args):
    fam = parse_family(args.family)
    design = SimDesign(setting=args.setting, n=args.n, rho=args.rho, family=fam)
    rngs = spawn_rngs(args.seed, args.reps)
    grid = baselines.default_step_grid(count=args.grid_size)
    sums = {}
    for rng in rngs:
        sim = simulate(design, rng, hypothesis="h1")
        curves = _metric_curves(sim, fam, args.rounds, args.eval_size, rng, grid,
                                rho=args.rho)
        for method, curve in curves.items():
            acc = sums.setdefault(method, np.zeros(args.rounds + 1))
            acc[:len(curve)] += np.asarray(curve)
            acc[len(curve):] += curve[-1]  # hold the last value if stopped early
    rows = []
    for method in sorted(sums):
        for rnd, val in enumerate(sums[method] / args.reps):
            rows.append((method, rnd, format_float(val)))
    _write_csv(args.out, vars(args), ("method", "round", "metric"), rows)
    return 0


# -- robust-u ---------------------------------------------------------------


def cmd_robust_u(args):
    fam = parse_family(args.family)
    design = SimDesign(setting=args.setting, n=args.n, rho=args.rho, family=fam)
    scenarios = ["h0", "h1"] if args.scenario == "both" else [args.scenario]
    rows = []
    for scenario in scenarios:
        rngs = spawn_rngs(args.seed, args.reps)
        matches = 0
        for rng in rngs:
            sim = simulate(design, rng, hypothesis=scenario)
            view_a = _view(sim, Owner.A)
            context = screen_context(view_a, sim.y, fam)
            decisions = []
            for _ in range(args.u_count):
                report = _screen(view_a, context, sim, args.t, args.noise, fam, args, rng)
                decisions.append(report.decision.reject)
            matches += int(all(decisions) or not any(decisions))
        rows.append((scenario, args.noise, matches))
    _write_csv(args.out, vars(args), ("scenario", "noise", "matches_out_of_reps"), rows)
    return 0


# -- agent -------------------------------------------------------------------


def _agent_channel(args, tally):
    me = "A" if args.role == "alice" else "B"
    peer = "B" if me == "A" else "A"
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
        raise ProtocolError("pass exactly one of --listen or --connect")
    fam = parse_family(args.family)
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
        rng = np.random.default_rng(args.seed)
        X_b = view.design
        if args.screen_rows and args.screen_rows < X_b.shape[0]:
            X_b = X_b[: args.screen_rows]  # leading rows of the sorted-id order
        t = min(args.t, X_b.shape[1])
        sketch = make_sketch(X_b, t, rng, noise_scale=args.laplace_scale,
                             epsilon=args.epsilon, c2=args.clip_bound)
        chan.send(SketchOffer(projected=sketch.projected, t=sketch.t, noised=sketch.noised,
                              epsilon=sketch.epsilon, c2=sketch.c2,
                              rows_excluded=sketch.rows_excluded))
        result = chan.recv()
        if not isinstance(result, ScreenResult):
            raise ProtocolError("expected a screening result")
        _print_json({"role": "bob", "mode": "screen", "reject": result.reject,
                     "p_value": format_float(result.p_value)})
        return 0
    offer = chan.recv()
    if not isinstance(offer, SketchOffer):
        raise ProtocolError("expected a sketch offer")
    # B sketched its leading rows; the screening functions drop the clipped ones
    excluded = offer.rows_excluded
    n_rows = len(offer.projected) + len(excluded)
    if n_rows > view.n:
        raise ProtocolError("sketch carries more rows than this agent holds")
    if len(set(excluded)) != len(excluded) or not all(0 <= i < n_rows for i in excluded):
        raise ProtocolError("excluded sketch rows must be distinct rows of the sketch")
    try:
        sketch = SketchPackage(projected=offer.projected, t=offer.t, noised=offer.noised,
                               epsilon=offer.epsilon, c2=offer.c2, rows_excluded=excluded)
    except (BadDimensions, ValueError) as exc:  # e.g. not t columns, noised without epsilon
        raise ProtocolError(f"malformed sketch offer: {exc}") from None
    view_rows = AgentView(design=view.design[:n_rows], column_names=view.column_names,
                          owner=view.owner)
    y_rows = np.asarray(y, dtype=float)[:n_rows]
    if args.test == "lrt":
        report = lrt_screen(view_rows, y_rows, sketch, fam, alpha=args.alpha)
    else:
        report = wald_screen(view_rows, y_rows, sketch, fam, alpha=args.alpha,
                             ridge=args.ridge)
    d = report.decision
    chan.send(ScreenResult(statistic=d.statistic, df=d.df, p_value=d.p_value,
                           reject=d.reject, alpha=d.alpha))
    _print_json({"role": "alice", "mode": "screen", "statistic": format_float(d.statistic),
                 "df": d.df, "p_value": format_float(d.p_value), "reject": d.reject,
                 "alpha": format_float(d.alpha), "n_used": report.n_used,
                 "identified_rank": report.identified_rank, "degenerate": report.degenerate,
                 "iterations": report.fit.iterations})
    return 0


def _resolve_tol(value, auto):
    """CLI stop tolerances: negative = library default, 0 = disabled."""
    if value is None or value < 0:
        return auto
    return value if value > 0 else None


def _agent_train(args, fam, view, y, chan, tally):
    if args.role == "alice":
        default = StopCriterion.default(view.n)
        stop = StopCriterion(
            offset_tol=_resolve_tol(args.offset_tol, default.offset_tol),
            coef_tol=_resolve_tol(args.coef_tol, default.coef_tol),
            max_rounds=args.max_rounds)
        rng = np.random.default_rng(args.seed)
        res = run_alice(view, y, fam, chan, stop=stop, ridge=args.ridge,
                        mask_flip_prob=args.mask_flip, rng=rng)
        beta, predict_side = res["beta_a"], _predict_alice
    else:
        res = run_bob(view, fam, chan)
        beta, predict_side = res["beta_b"], _predict_bob
    _print_json({"role": args.role, "mode": args.mode,
                 "beta": [format_float(v) for v in beta],
                 "rounds": res["rounds"], "stop_reason": res["stop_reason"],
                 "rounds_transmitted": tally.offset_count(),
                 "bytes_transmitted": tally.bytes_transmitted})
    if args.mode == "predict":
        predict_side(args, fam, res, chan)
    return 0


def _predict_alice(args, fam, res, chan):
    _, view_new, _ = load_agent_csv(args.predict_data, args.id_column, Owner.A)
    cov = res["cov_a"]
    for i in range(view_new.n):
        x_a = view_new.design[i]
        contrib = chan.recv()
        if not isinstance(contrib, PredictContribution):
            raise ProtocolError("expected a prediction contribution")
        nu = float(x_a @ res["beta_a"]) + contrib.nu
        sigma_a = float(np.sqrt(max(0.0, x_a @ cov @ x_a)))
        pred = joint_interval(nu, sigma_a, contrib.sigma, fam, args.alpha)
        _print_json({"row": i, "nu": format_float(nu), "point": format_float(pred.point),
                     "lo": format_float(pred.lo), "hi": format_float(pred.hi)})


def _predict_bob(args, fam, res, chan):
    _, view_new, _ = load_agent_csv(args.predict_data, args.id_column, Owner.B)
    cov = res["cov_b"]
    for i in range(view_new.n):
        x_b = view_new.design[i]
        sigma = float(np.sqrt(max(0.0, x_b @ cov @ x_b))) if cov is not None else 0.0
        chan.send(PredictContribution(nu=float(x_b @ res["beta_b"]), sigma=sigma))


# -- parser -------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--family", default="logistic")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--test", choices=("wald", "lrt"), default="wald")
    p.add_argument("--out", required=True)


def build_parser(presets=None):
    parser = argparse.ArgumentParser(prog="aeal")
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
    _add_common(p)
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
    p.add_argument("--offset-tol", type=float, default=-1.0,
                   help="negative = default 1e-8*sqrt(n), 0 = disabled")
    p.add_argument("--coef-tol", type=float, default=-1.0,
                   help="negative = default 1e-8, 0 = disabled")
    p.add_argument("--predict-data")
    p.set_defaults(func=cmd_agent)

    for p in sub.choices.values():
        dests = {a.dest for a in p._actions}
        p.set_defaults(**{k: v for k, v in (presets or {}).items() if k in dests})
    return parser


def main(argv=None):
    boot = argparse.ArgumentParser(add_help=False)
    boot.add_argument("--config")
    known, _ = boot.parse_known_args(argv)
    presets = None
    if known.config:
        with open(known.config, encoding="utf-8") as fh:
            presets = {k.replace("-", "_"): v for k, v in json.load(fh).items()}
    parser = build_parser(presets)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolError, TransportFailure) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except AealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
