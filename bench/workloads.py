"""The four workloads: seeded inputs, the jobs a user runs, and the checks.

Jobs call the library's entry points through module attributes looked up at
call time, so the tracer's wrappers see them.  ``detect`` and ``verify`` go
through the command line front end in-process (``trace_turan.cli.main``),
reading input files and writing output files as ``trace-turan check`` and
``trace-turan verify`` do.

Each ``check`` is independent of the code it checks and is never timed.  Its
verdicts are memoised on the output's content, so a deterministic job is
checked once per run however many passes repeat it.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = {}


def workload(cls):
    WORKLOADS[cls.name] = cls
    return cls


def relabel(tt, h, rng: random.Random):
    """h under a seeded vertex permutation, and the permutation."""
    perm = list(range(h.n))
    rng.shuffle(perm)
    return tt.Hypergraph3(h.n, [tuple(perm[v] for v in e) for e in h.edges]), perm


def polarity_lift(tt, q: int, rng: random.Random):
    """The C4-free polarity graph for q, and its lift relabelled by rng."""
    g = tt.polarity_graph(q)
    h, _ = relabel(tt, tt.lift_to_trace_free(g), rng)
    return g, h


def plant_k22(tt, h, rng: random.Random):
    """h plus edges {x,u_i,w}, {y,u_i,w'} with every w outside {x,y,u_1,u_2}.

    The certificate the planting makes is checked here, so the trace is
    present by construction.
    """
    x, y, u1, u2 = rng.sample(range(h.n), 4)
    core = {x, y, u1, u2}
    out = h.copy()
    assignment = {}
    for side, p in (("x", x), ("y", y)):
        for u in (u1, u2):
            w = rng.choice([w for w in range(h.n) if w not in core and (p, u, w) not in out])
            assignment[(side, u)] = out.add_edge((p, u, w))
    cert = tt.TraceCertificate(x, y, tuple(sorted((u1, u2))), assignment)
    if not tt.verify_certificate(out, cert):
        raise RuntimeError("planted trace does not verify")
    return out


def isomorphic(a, b) -> bool:
    """Brute force over every vertex permutation."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = set(b.edges)
    edges = a.edges
    for perm in itertools.permutations(range(a.n)):
        if all(tuple(sorted((perm[u], perm[v], perm[w]))) in target for u, v, w in edges):
            return True
    return False


class Workload:
    name = ""

    def __init__(self, tt, seed: int, workdir: Path):
        """Generate the inputs (timed as set-up)."""
        self.tt = tt
        self.rng = random.Random(seed)
        self.workdir = workdir
        self._verdicts: dict = {}

    def collect(self, output):
        """What a job returned, turned into what its check reads; not timed."""
        return output

    def ground_truth(self) -> None:
        """Facts about the inputs the checks rely on; raises if one fails."""

    def jobs(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, name: str, output, outputs: dict) -> str | None:
        """None if the job's output is correct, else the reason it is not."""
        key = (name, self._key(name, output, outputs))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(name, output, outputs)
        return self._verdicts[key]

    def _key(self, name: str, output, outputs: dict):
        return output

    def _check(self, name: str, output, outputs: dict) -> str | None:
        raise NotImplementedError


def _result_key(result):
    return result.value, result.nodes_explored, tuple(w.edges for w in result.witnesses)


@workload
class Search(Workload):
    name = "search"
    # (entry, n, t) -> (value, witness classes), from the README table
    EXPECTED = {
        ("turan_search", 7, 2): (9, 5),
        ("turan_search", 6, 3): (14, 1),
        ("turan_oracle", 6, 3): (14, 1),
    }

    def jobs(self):
        search = self.tt.search

        def job(entry, n, t):
            return lambda: getattr(search, entry)(n, t)

        return [(f"{entry}({n},{t})", job(entry, n, t)) for entry, n, t in self.EXPECTED]

    def _key(self, name, output, outputs):
        if name.startswith("turan_oracle"):
            return _result_key(output), _result_key(outputs.get("turan_search(6,3)"))
        return _result_key(output)

    def _check(self, name, result, outputs):
        entry, _, rest = name.partition("(")
        n, t = map(int, rest.rstrip(")").split(","))
        value, classes = self.EXPECTED[(entry, n, t)]
        if result.value != value:
            return f"value {result.value}, expected {value}"
        if len(result.witnesses) != classes:
            return f"{len(result.witnesses)} witness classes, expected {classes}"
        for w in result.witnesses:
            if w.n != n or w.edge_count != value:
                return f"witness {w!r} does not have {value} edges on {n} vertices"
            if self.tt.contains_trace_naive(w, t) is not None:
                return "a witness contains a trace"
        for a, b in itertools.combinations(result.witnesses, 2):
            if isomorphic(a, b):
                return "two witnesses are isomorphic"
        if entry == "turan_oracle":
            other = outputs.get("turan_search(6,3)")
            if other is None or other.value != result.value:
                return "oracle and search disagree on the value"
            if not all(any(isomorphic(a, b) for b in other.witnesses) for a in result.witnesses):
                return "oracle and search disagree on the witness classes"
        return None


class CliWorkload(Workload):
    """Jobs run ``trace-turan <command> --file <input> ... --output <file>``."""

    command: tuple[str, ...] = ()

    def __init__(self, tt, seed, workdir):
        super().__init__(tt, seed, workdir)
        self.inputs: dict[str, object] = {}  # input name -> hypergraph
        self.args: dict[str, tuple[str, ...]] = {}  # job name -> cli arguments

    def add_input(self, name: str, h, *runs: tuple[str, ...]) -> None:
        path = self.workdir / f"{name}.hg"
        self.tt.write_hypergraph(h, str(path))
        self.inputs[name] = h
        for extra in runs:
            job = f"{self.command[0]} {name} {' '.join(extra)}"
            out = self.workdir / f"{name}.{'_'.join(a.lstrip('-') for a in extra)}.out"
            out.unlink(missing_ok=True)
            self.args[job] = (*self.command, "--file", str(path), *extra, "--output", str(out))

    def jobs(self):
        cli = self.tt.cli

        def job(args):
            return cli.main(list(args)), Path(args[-1])

        return [(name, (lambda a=args: job(a))) for name, args in self.args.items()]

    def collect(self, output):
        """(exit code, output text or None), removing the output file."""
        code, out = output
        text = out.read_text(encoding="ascii") if out.exists() else None
        out.unlink(missing_ok=True)
        return code, text

    def input_of(self, job: str):
        return self.inputs[job.split()[1]]


@workload
class Detect(CliWorkload):
    name = "detect"
    command = ("check",)

    def __init__(self, tt, seed, workdir):
        super().__init__(tt, seed, workdir)
        self.graphs = {}
        for q in (11, 13):
            g, lift = polarity_lift(tt, q, self.rng)
            self.graphs[f"lift{q}"] = g
            self.add_input(f"lift{q}", lift, ("--t", "2"))
            self.add_input(f"planted{q}", plant_k22(tt, lift, self.rng), ("--t", "2"))

    def ground_truth(self):
        # a lift of a C4-free graph has no K_{2,2} trace, hence no K_{2,t} one
        for name, g in self.graphs.items():
            if self.tt.contains_c4(g):
                raise RuntimeError(f"{name}: polarity graph has a C4")

    def _check(self, name, output, outputs):
        code, text = output
        if code != 0 or text is None:
            return f"exit code {code}"
        h = self.input_of(name)
        if name.split()[1] in self.graphs:
            return None if text == "trace-free\n" else "reported a trace on a trace-free lift"
        cert = self.tt.certificate_from_text(text)
        return None if self.tt.verify_certificate(h, cert) else "certificate does not verify"


@workload
class Verify(CliWorkload):
    name = "verify"
    command = ("verify",)
    ARGS = ("--t", "2", "--delta", "14")
    # input -> {check that must report violations: how many, or None for at
    # least one}; every other check must report none.  The counts on
    # complete15 (420 in all) and hubs12 are those of this commit; the
    # random instance's counts vary with the seed.
    FIRED = {
        "complete15": {"residual-codegree-cap": 105, "common-neighborhood-cap": 105,
                       "shell-size-floor": 210},
        "random16": {"residual-codegree-cap": None, "common-neighborhood-cap": None,
                     "shell-size-floor": None},
        "hubs12": {"residual-codegree-cap": 4, "common-neighborhood-cap": 6},
        "lift13": {},
    }

    def __init__(self, tt, seed, workdir):
        super().__init__(tt, seed, workdir)
        triples16 = list(itertools.combinations(range(16), 3))
        hubs = [e for u in range(2, 10) for hub in (10, 11) for e in ((0, u, hub), (1, u, hub))]
        self.graph, lift = polarity_lift(tt, 13, self.rng)
        self.add_input("complete15", tt.Hypergraph3(15, itertools.combinations(range(15), 3)), self.ARGS)
        self.add_input("random16", tt.Hypergraph3(16, self.rng.sample(triples16, 168)), self.ARGS)
        self.add_input("hubs12", tt.Hypergraph3(12, hubs), self.ARGS)
        self.add_input("lift13", lift, self.ARGS)

    def ground_truth(self):
        if self.tt.contains_c4(self.graph):
            raise RuntimeError("lift13: polarity graph has a C4")

    def _check(self, name, output, outputs):
        code, text = output
        if code != 0 or text is None:
            return f"exit code {code}"
        h = self.input_of(name)
        fired = {}
        for line in text.splitlines():
            status = json.loads(line)
            violations = status.get("violations", ())
            if (status["status"] == "violated") != bool(violations):
                return f"{status['check']}: status {status['status']!r} with {len(violations)} violations"
            if violations:
                fired[status["check"]] = len(violations)
            for v in violations:
                if v["certificate"] is None:
                    return f"{status['check']}: violation without certificate"
                cert = self.tt.certificate_from_text(v["certificate"])
                if not self.tt.verify_certificate(h, cert):
                    return f"{status['check']}: certificate does not verify"
        expected = self.FIRED[name.split()[1]]
        if set(fired) != set(expected) or any(
            count is not None and fired[check] != count for check, count in expected.items()
        ):
            return f"violations per check {fired}, expected {expected}"
        return None


@workload
class Construct(Workload):
    name = "construct"
    N = 12

    def __init__(self, tt, seed, workdir):
        super().__init__(tt, seed, workdir)
        self.seeds = {t: self.rng.randrange(10**6) for t in (2, 3)}

    def jobs(self):
        constructions = self.tt.constructions

        def job(t, seed):
            return lambda: constructions.greedy_lower_bound(self.N, t, seed)

        return [
            (f"greedy_lower_bound({self.N},{t},{seed})", job(t, seed))
            for t, seed in self.seeds.items()
        ]

    def _key(self, name, h, outputs):
        return h.n, h.edges

    def _check(self, name, h, outputs):
        t = int(name.split(",")[1])
        if h.n != self.N:
            return f"result has {h.n} vertices"
        if self.tt.contains_trace_naive(h, t) is not None:
            return "result contains a trace"
        for e in itertools.combinations(range(self.N), 3):
            if e in h:
                continue
            bigger = h.copy()
            bigger.add_edge(e)
            if self.tt.contains_trace(bigger, t) is None:
                return f"not maximal: {e} can be added"
        return None
