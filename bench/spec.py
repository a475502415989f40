"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 bench/run.py --write-spec``; the run checks that it prints exactly
these metric names.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 28

WORKLOADS = [
    ("paper", "the 13 seed-check criteria then the README CLI matrix in 3 formats: what a reader "
              "runs; the only user of cli and acceptance, and many small fields up to GF(199)"),
    ("scan", "chsh_bound over GF(9) and GF(19), census over GF(49): bulk enumeration and brackets "
             "in gf, linear, biortho, entangle; groups and exactlp idle"),
    ("orbits", "local/global orbits and Burnside over GF(7) and GF(9), then a local transform for "
               "all 504 entangled GF(9) states: groups action table, BFS; exactlp idle"),
    ("lp", "hidden-variable LPs on axes 123 for S, T, U over GF(9), a seeded local pair on T, U: "
           "exactlp and inference over Fraction; nothing cached, gf negligible"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]

# name, unit, better, bound.  Bounds come from two sets of ten runs per
# workload on a shared 2-vCPU host (see BASELINE.md): scaled cold/warm
# spreads reached 0.114 and set-up spreads 0.185, so their bounds stay at the
# 0.25 ceiling; peak RSS spreads stayed under 0.008.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
]

CRITERIA = 13

# name, unit, better
PER_LAYER = [
    ("gf.element_calls", "count", "lower"),
    ("gf.mul_ns", "ns", "lower"),
    ("linear.enumerate_projective_s", "s", "lower"),
    ("linear.states_enumerated", "count", "lower"),
    ("linear.dot_calls", "count", "lower"),
    ("biortho.bracket_calls", "count", "lower"),
    ("biortho.bracket_s", "s", "lower"),
    ("entangle.two_particle_states_s", "s", "lower"),
    ("entangle.correlator_calls", "count", "lower"),
    ("entangle.chsh_bound_s", "s", "lower"),
    ("entangle.census_s", "s", "lower"),
    ("groups.enumerate_group_s", "s", "lower"),
    ("groups.action_table_s", "s", "lower"),
    ("groups.act_calls", "count", "lower"),
    ("groups.orbits_s", "s", "lower"),
    ("groups.burnside_count_s", "s", "lower"),
    ("groups.find_local_transform_s", "s", "lower"),
    ("exactlp.solve_lp_calls", "count", "lower"),
    ("exactlp.solve_lp_s", "s", "lower"),
    ("exactlp.rref_calls", "count", "lower"),
    ("exactlp.rref_s", "s", "lower"),
    ("exactlp.verify_farkas_calls", "count", "lower"),
    ("inference.infer_probabilities_s", "s", "lower"),
    ("inference.hv_feasibility_s", "s", "lower"),
    ("cli.build_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.reports", "count", "higher"),
    *[(f"acceptance.criterion_{n:02d}_s", "s", "lower") for n in range(1, CRITERIA + 1)],
    *[(f"acceptance.criterion_{n:02d}_cold_s", "s", "lower") for n in range(1, CRITERIA + 1)],
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.entries", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    # unscaled seconds of the untraced passes, and the host-speed reference
    # time beside them, so the scaling of the end-to-end times can be audited
    ("wall.cold_s", "s", "lower"),
    ("wall.warm_s", "s", "lower"),
    ("host.reference_us", "us", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
