"""The four benchmark workloads.

Each workload turns a seeded ``random.Random`` into a list of jobs
(plain data: coordinates, rank vectors, cover edges, file names), runs
one job against the library (the timed part), reduces its output to a
JSON digest, and re-verifies the output from first principles (the
untimed part).  Job lists repeat a fixed pattern of size classes, so
every prefix of the list has the same mix whatever the seed; size
classes are held in narrow bands by rejection sampling, because job
cost follows the size of the closed-set family far more than the seed.

``verify`` returns a list of problems; an empty list is a correct job.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles as orc
from oracles import MaskLattice, PlanarPoints, bits


def _verdict(v) -> list:
    return [v.holds, v.witness]


def _random_orders(rng, n: int, k: int) -> list[tuple[int, ...]]:
    return [tuple(rng.sample(range(n), n)) for _ in range(k)]


def _check_m3_n5(lat: MaskLattice, witness, names) -> str | None:
    """Re-verify an M3 or N5 witness given by element labels."""
    if not witness or witness.get("kind") not in ("M3", "N5"):
        return f"unexpected witness {witness}"
    try:
        elems = [lat.index[orc.parse_set_label(s, names)] for s in witness["elements"]]
    except (KeyError, ValueError):
        return f"witness names non-elements: {witness}"
    ok = lat.is_m3(elems) if witness["kind"] == "M3" else lat.is_n5(elems)
    return None if ok else f"{witness['kind']} witness does not re-verify"


# ====================================================== relconvex-plane


class RelconvexPlane:
    """Full report on one planar configuration: closed sets, geometry
    verdict, largest convexly independent subset, least line cover,
    five-point property and the ind <= 2 * line sandwich."""

    name = "relconvex-plane"
    # (kind, points); general position vs. a 4x4 grid with collinear triples
    # Three cheap classes to two dear ones, so the median and the p90
    # both fall inside a cluster of job costs rather than in the gap.
    pattern = [("gp", 6), ("grid", 6), ("gp", 7), ("grid", 7), ("grid", 6)]
    tiny_pattern = [("gp", 4), ("grid", 5)]
    jobs_per_list = 200

    def generate(self, rng, count: int, tiny: bool, workdir: Path) -> list[dict]:
        pattern = self.tiny_pattern if tiny else self.pattern
        jobs = []
        for i in range(count - count % len(pattern)):
            kind, n = pattern[i % len(pattern)]
            coords = self._general(rng, n) if kind == "gp" else self._grid(rng, n)
            jobs.append({"cls": f"{kind}{n}", "coords": coords})
        return jobs

    @staticmethod
    def _general(rng, n):
        while True:
            pts = set()
            while len(pts) < n:
                pts.add((Fraction(rng.randint(0, 60), rng.choice((1, 2, 3))),
                         Fraction(rng.randint(0, 60), rng.choice((1, 2, 3)))))
            pts = sorted(pts)
            if not PlanarPoints(pts).has_collinear_triple(range(n)):
                return pts

    @staticmethod
    def _grid(rng, n):
        cells = [(x, y) for x in range(4) for y in range(4)]
        while True:
            chosen = sorted(rng.sample(cells, n))
            if PlanarPoints(chosen).has_collinear_triple(range(n)):
                break
        scale = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 2)))
        dx, dy = Fraction(rng.randint(0, 9), 2), Fraction(rng.randint(0, 9), 3)
        return [(dx + x * scale, dy + y * scale) for x, y in chosen]

    def run(self, lib, job):
        config = lib.PointConfig.from_coords(2, job["coords"])
        system = lib.relconvex_system(config)
        lattice = lib.enumerate_closed_sets(system)
        return {
            "masks": lattice.masks,
            "geometry": lib.is_convex_geometry(system),
            "independent": lib.max_convexly_independent(config),
            "cover": lib.min_line_cover(config),
            "es5": lib.check_es5(config),
            "sandwich": lib.dimension_sandwich_report(config),
        }

    def digest(self, job, raw) -> dict:
        count, lines = raw["cover"]
        ind, line_count, verdict = raw["sandwich"]
        return {
            "family": orc.family_digest(raw["masks"]),
            "closed_sets": len(raw["masks"]),
            "geometry": _verdict(raw["geometry"]),
            "independent": [raw["independent"][0], list(raw["independent"][1])],
            "cover": [count, [[[str(c) for c in ln.base], list(ln.direction)] for ln in lines]],
            "es5": _verdict(raw["es5"]),
            "sandwich": [ind, line_count, _verdict(verdict)],
        }

    def verify(self, lib, job, raw, rng, deep: bool) -> list[str]:
        problems = []
        coords = job["coords"]
        n = len(coords)
        pts = PlanarPoints(coords)
        full = (1 << n) - 1
        masks = list(raw["masks"])
        if not orc.intersection_closed(masks, full) or 0 not in masks:
            problems.append("closed family is not intersection-closed with the empty and full sets")
        config = lib.PointConfig.from_coords(2, coords)
        for _ in range(3):
            y = rng.randrange(1 << n)
            closure = orc.close_in(masks, y, full)
            for p in bits(full & ~y):
                truth = lib.hull_membership_caratheodory(config, y, p)
                if truth != pts.in_hull(y, p) or truth != bool(closure >> p & 1):
                    problems.append(f"closure of {y:b} disagrees with the hull oracles at {p}")
        if deep and set(masks) != set(pts.family()):
            problems.append("closed family differs from filtering all subsets for closedness")

        if not raw["geometry"].holds:
            problems.append(f"relatively convex sets reported as no convex geometry: "
                            f"{raw['geometry'].witness}")

        size, members = raw["independent"]
        if size != len(members) or not pts.convexly_independent(members):
            problems.append("convexly independent witness does not re-verify")
        if deep and any(pts.convexly_independent(c) for c in combinations(range(n), size + 1)):
            problems.append("a larger convexly independent subset exists")

        count, lines = raw["cover"]
        if count != len(lines) or not all(
            any(orc.on_line(ln.base, ln.direction, p) for ln in lines) for p in coords
        ):
            problems.append("line cover witness does not cover every point")

        es5 = raw["es5"]
        if not es5.holds:
            five = [int(label[1:]) for label in es5.witness["points"]]
            if not pts.has_collinear_triple(five) and not any(
                pts.convexly_independent(four) for four in combinations(five, 4)
            ):
                problems.append("five-point counterexample re-verifies (contradicts theory)")
            else:
                problems.append("five-point witness does not re-verify")

        ind, line_count, verdict = raw["sandwich"]
        if (ind, line_count) != (size, count) or not verdict.holds or ind > 2 * line_count:
            problems.append("ind <= 2 * line sandwich is inconsistent")
        return problems


# ===================================================== lattice-verdicts


class LatticeVerdicts:
    """The verdict battery on one lattice: closed-set lattices of random
    k-chain geometries and distributive down-set lattices of sparse
    random posets, each held to a band of lattice sizes."""

    name = "lattice-verdicts"
    # (kind, lowest size, highest size); the middle class holds the
    # median, the two large ones the tail.
    pattern = [("chains", 36, 48), ("downsets", 36, 48), ("chains", 55, 65),
               ("chains", 75, 90), ("downsets", 60, 72)]
    tiny_pattern = [("chains", 10, 16), ("downsets", 8, 14)]
    jobs_per_list = 150

    def generate(self, rng, count: int, tiny: bool, workdir: Path) -> list[dict]:
        pattern = self.tiny_pattern if tiny else self.pattern
        jobs = []
        for i in range(count - count % len(pattern)):
            kind, lo, hi = pattern[i % len(pattern)]
            ground = (4, 6) if tiny else (7, 10)
            while True:
                job = self._chains(rng, ground) if kind == "chains" else self._downsets(rng, ground)
                if lo <= len(job["family"]) <= hi:
                    break
            job["cls"] = f"{kind}{lo}-{hi}"
            jobs.append(job)
        return jobs

    @staticmethod
    def _chains(rng, ground):
        n, k = rng.randint(*ground), rng.choice((3, 4))
        orders = _random_orders(rng, n, k)
        return {"kind": "chains", "n": n, "orders": orders, "family": orc.multichain_family(orders, n)}

    @staticmethod
    def _downsets(rng, ground):
        m = rng.randint(*ground)
        density = rng.uniform(0.12, 0.3)
        covers = [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < density]
        family = orc.downsets(m, orc.strict_below(m, covers))
        return {"kind": "downsets", "n": m, "covers": covers, "family": family}

    def _source(self, lib, job):
        if job["kind"] == "chains":
            n = job["n"]
            system = lib.multichain_system(
                lib.Multichain(lib.GroundSet.of_size(n), tuple(job["orders"])))
            return lib.enumerate_closed_sets(system)
        labels = tuple(f"e{i}" for i in range(job["n"]))
        return lib.downset_lattice(lib.FinitePoset.from_covers(labels, job["covers"]))

    def run(self, lib, job):
        source = self._source(lib, job)
        out = {}
        if job["kind"] == "chains":
            out["cover_structure"] = lib.check_cover_structure(source)
        out["characterization"] = lib.check_convexity_characterization(source)
        out["distributive"] = lib.is_distributive(source)
        out["modular"] = lib.is_modular(source)
        out["join_dimension"] = lib.join_dimension(source)
        lattice = lib.as_lattice(source)
        cover = lib.min_chain_cover(lattice, lib.meet_irreducibles(lattice))
        out["cover"] = cover
        out["embedding"] = lib.embed_via_chain_covers(source, cover)
        if out["distributive"].holds:
            antimatroid = lib.antimatroid_from_distributive(source)
            out["antimatroid"] = (antimatroid.ground.size, antimatroid.closed_family())
        out["labels"] = lattice.labels
        return out

    def digest(self, job, raw) -> dict:
        out = {
            name: _verdict(raw[name])
            for name in ("cover_structure", "characterization", "distributive", "modular")
            if name in raw
        }
        out["elements"] = orc.text_digest("|".join(raw["labels"]))
        out["join_dimension"] = raw["join_dimension"]
        out["cover"] = [list(map(list, raw["cover"].chains)), list(raw["cover"].antichain)]
        out["embedding"] = [list(map(list, raw["embedding"].chains)),
                            orc.text_digest(repr(raw["embedding"].images))]
        if "antimatroid" in raw:
            out["antimatroid"] = [raw["antimatroid"][0], orc.family_digest(raw["antimatroid"][1])]
        return out

    def verify(self, lib, job, raw, rng, deep: bool) -> list[str]:
        problems = []
        n = job["n"]
        names = {(str(i) if job["kind"] == "chains" else f"e{i}"): i for i in range(n)}
        lat = MaskLattice(job["family"])
        try:
            elements = [orc.parse_set_label(s, names) for s in raw["labels"]]
        except KeyError:
            return ["lattice labels name unknown elements"]
        if elements != lat.masks:
            problems.append("lattice elements differ from the independently built family")
        if not orc.intersection_closed(lat.masks, (1 << n) - 1):
            problems.append("family is not intersection-closed with the full set")
        if deep and job["kind"] == "chains":
            by_filter = [y for y in range(1 << n)
                         if orc.multichain_closure(job["orders"], n, y) == y]
            if by_filter != lat.masks:
                problems.append("family differs from filtering all subsets for closedness")

        # Both kinds are lattices of convex geometries, and those are
        # join-semidistributive: modular holds exactly when distributive does.
        for name in ("cover_structure", "characterization"):
            if name in raw and not raw[name].holds:
                problems.append(f"{name} fails on a convex geometry: {raw[name].witness}")
        distributive = lat.is_distributive()
        for name in ("distributive", "modular"):
            verdict = raw[name]
            if verdict.holds != distributive:
                problems.append(f"{name} verdict {verdict.holds}, expected {distributive}")
            if not verdict.holds:
                bad = _check_m3_n5(lat, verdict.witness, names)
                if bad:
                    problems.append(f"{name}: {bad}")

        mi = set(lat.meet_irreducibles())
        cover = raw["cover"]
        covered = [e for chain in cover.chains for e in chain]
        if sorted(covered) != sorted(mi):
            problems.append("chain cover does not partition the meet-irreducibles")
        if not all(orc.is_chain(lat, chain) for chain in cover.chains):
            problems.append("chain cover holds a non-chain")
        if not (raw["join_dimension"] == len(cover.chains) == len(cover.antichain)
                and set(cover.antichain) <= mi and orc.is_antichain(lat, cover.antichain)):
            problems.append("join dimension is not certified by an antichain of cover size")

        problems += self._verify_embedding(lat, raw["embedding"], rng)

        if distributive:
            if "antimatroid" not in raw:
                problems.append("no antimatroid built for a distributive lattice")
            else:
                ground, family = raw["antimatroid"]
                if (ground != len(mi) or len(family) != lat.size or 0 not in family
                        or not orc.intersection_closed(family, (1 << ground) - 1)):
                    problems.append("antimatroid family does not re-verify")

        if deep:
            problems += self._small_oracle(lib, job)
        return problems

    @staticmethod
    def _verify_embedding(lat: MaskLattice, emb, rng) -> list[str]:
        covers = lat.upper_covers()
        bottom, top = 0, lat.size - 1
        for chain in emb.chains:
            if chain[0] != bottom or chain[-1] != top or any(
                not covers[a] >> b & 1 for a, b in zip(chain, chain[1:])
            ):
                return ["embedding chain is not a maximal chain"]
        positions = [{e: k for k, e in enumerate(chain)} for chain in emb.chains]
        images = []
        for x in range(lat.size):
            images.append(tuple(
                next(e for e in chain if lat.leq(x, e)) for chain in emb.chains))
        if tuple(images) != tuple(emb.images):
            return ["embedding images are not the chain retractions"]
        if len(set(images)) != lat.size:
            return ["embedding is not injective"]
        for _ in range(200):
            x, y = rng.randrange(lat.size), rng.randrange(lat.size)
            xy = lat.join(x, y)
            for c, pos in enumerate(positions):
                if pos[images[xy][c]] != max(pos[images[x][c]], pos[images[y][c]]):
                    return [f"embedding does not preserve the join of {x} and {y}"]
        return []

    @staticmethod
    def _small_oracle(lib, job) -> list[str]:
        """join_dimension against brute_force_join_dimension on a
        lattice of at most 8 elements cut from the job's own input."""
        if job["kind"] == "chains":
            ranks = [sorted(r[:3]) for r in job["orders"]]
            orders = tuple(tuple(rs.index(v) for v in r[:3]) for r, rs in zip(job["orders"], ranks))
            small = lib.enumerate_closed_sets(lib.multichain_system(
                lib.Multichain(lib.GroundSet.of_size(3), orders)))
        else:
            covers = [(a, b) for a, b in job["covers"] if b < 3]
            small = lib.downset_lattice(lib.FinitePoset.from_covers(("a", "b", "c"), covers))
        lattice = lib.as_lattice(small)
        if lib.join_dimension(lattice) != lib.brute_force_join_dimension(lattice):
            return ["join_dimension disagrees with brute_force_join_dimension"]
        return []


# =================================================== obstruction-search


def _omega_elements(depth: int):
    return [(n, k) for n in range(depth + 1) for k in range(1 << n)]


def _omega_join(a, b):
    (n1, k1), (n2, k2) = a, b
    n = max(n1, n2)
    return (n, max(k1 << (n - n1), k2 << (n - n2)))


class ObstructionSearch:
    """One join-subsemilattice embedding query of a small pattern into
    the compact semilattice of a bichain or an interval geometry."""

    name = "obstruction-search"
    # (host, pattern, depth, lowest host size, highest host size)
    # Two quick successes and one search into a random bichain, then
    # exhaustive failures on fixed interval hosts: boolean(3) into
    # interval(7) is four jobs in ten and holds the median in its
    # middle; omega_prefix(3) into interval(7), about three times as
    # dear, is three in ten and holds the p90.  Jobs of a hundred
    # milliseconds and more, on one fixed input at each percentile, keep
    # both percentiles from following the seed or the brief speed swings
    # of a shared machine.
    pattern = [
        ("bichain", "boolean", 2, 35, 50), ("interval", "boolean", 3, 29, 29),
        ("interval", "omega", 3, 29, 29), ("bichain", "omega", 2, 35, 50),
        ("interval", "boolean", 3, 29, 29), ("interval", "omega", 3, 29, 29),
        ("bichain", "boolean", 3, 20, 24), ("interval", "boolean", 3, 29, 29),
        ("interval", "omega", 3, 29, 29), ("interval", "boolean", 3, 29, 29),
    ]
    tiny_pattern = [
        ("bichain", "boolean", 2, 8, 14), ("interval", "omega", 2, 11, 16),
        ("bichain", "omega", 2, 8, 14), ("interval", "boolean", 2, 11, 16),
    ]
    jobs_per_list = 560

    def generate(self, rng, count: int, tiny: bool, workdir: Path) -> list[dict]:
        pattern = self.tiny_pattern if tiny else self.pattern
        jobs = []
        for i in range(count - count % len(pattern)):
            host, pat, depth, lo, hi = pattern[i % len(pattern)]
            while True:
                if host == "bichain":
                    n = rng.randint(4, 12)
                    perm = tuple(rng.sample(range(n), n))
                    family = orc.multichain_family([tuple(range(n)), perm], n)
                    job = {"host": host, "n": n, "perm": perm}
                else:
                    n = rng.randint(4, 10)
                    family = orc.interval_family(n)
                    job = {"host": host, "n": n}
                if lo <= len(family) <= hi:
                    break
            job.update(cls=f"{host}-{pat}{depth}", pattern=pat, depth=depth, family=family)
            jobs.append(job)
        return jobs

    def run(self, lib, job):
        if job["host"] == "bichain":
            system = lib.multichain_system(lib.bichain_from_permutation(job["perm"]))
        else:
            system = lib.interval_system(job["n"])
        host = lib.compact_semilattice_of_geometry(system)
        maker = lib.boolean_pattern if job["pattern"] == "boolean" else lib.omega_prefix_pattern
        found = lib.embeds_as_join_subsemilattice(maker(job["depth"]).semilattice, host)
        return {"labels": host.labels, "found": None if found is None else found.assignment}

    def digest(self, job, raw) -> dict:
        return {
            "host": orc.text_digest("|".join(raw["labels"])),
            "found": None if raw["found"] is None else list(raw["found"]),
        }

    def verify(self, lib, job, raw, rng, deep: bool) -> list[str]:
        n = job["n"]
        names = {str(i): i for i in range(n)}
        lat = MaskLattice(job["family"])
        try:
            elements = [orc.parse_set_label(s, names) for s in raw["labels"]]
        except KeyError:
            return ["host labels name unknown elements"]
        if elements != lat.masks:
            return ["host elements differ from the independently built family"]
        assignment = raw["found"]
        if assignment is None:
            return []
        if job["pattern"] == "boolean":
            size = 1 << job["depth"]
            pjoin = lambda i, j: i | j  # noqa: E731
        else:
            elems = _omega_elements(job["depth"])
            index = {e: i for i, e in enumerate(elems)}
            size = len(elems)
            pjoin = lambda i, j: index[_omega_join(elems[i], elems[j])]  # noqa: E731
        if len(assignment) != size or len(set(assignment)) != size:
            return ["embedding is not injective"]
        for i in range(size):
            for j in range(size):
                if lat.join(assignment[i], assignment[j]) != assignment[pjoin(i, j)]:
                    return [f"embedding does not preserve the join of {i} and {j}"]
        return []


# ============================================================ cli-files


def _family_payload(labels, family) -> dict:
    return {"ground": list(labels), "closed": [bits(m) for m in family]}


class CliFiles:
    """In-process ``convexitylab`` CLI calls on system files written
    during set-up; every call re-reads its file and writes its result
    with ``--output``."""

    name = "cli-files"
    # (verb, argument, file kind); file kinds index the pool made by ``_files``
    pattern = [
        ("gen", "chain-intervals", None), ("check", "convex-geometry", "system"),
        ("analyze", "irreducibles", "system"), ("export", "dot", "system"),
        ("gen", "perm", None), ("check", "characterization", "system"),
        ("analyze", "independent", "system"), ("export", "json", "system"),
        ("gen", "multichain", "multichain"), ("check", "distributive", "system"),
        ("analyze", "dimension", "system"), ("check", "super-solvable", "small"),
        ("gen", "points", "points"), ("check", "modular", "system"),
        ("analyze", "obstruction:boolean=2,omega=2", "system"),
        ("gen", "too-large", None),
    ]
    # closed sets per file, and the ground-size scale of the file makers
    sizes = {"system": ((45, 55), 2), "small": ((10, 30), 1)}
    tiny_sizes = {"system": ((8, 20), 1), "small": ((6, 12), 0)}
    jobs_per_list = 320

    def generate(self, rng, count: int, tiny: bool, workdir: Path) -> list[dict]:
        files = self._files(rng, tiny, workdir)
        jobs = []
        for i in range(count):
            verb, arg, kind = self.pattern[i % len(self.pattern)]
            out = workdir / f"out{i}.txt"
            job = {"cls": f"{verb}:{arg.partition(':')[0]}", "verb": verb, "arg": arg, "out": str(out)}
            if verb == "gen":
                job.update(self._gen_source(rng, arg, files, tiny, i // len(self.pattern)))
                job["argv"] = ["gen", job["source"], "--output", str(out)]
            else:
                # every file meets every verb equally often
                spec = files[kind][i // len(self.pattern) % len(files[kind])]
                job["file"] = spec
                job["argv"] = [verb, spec["path"], arg, "--output", str(out)]
            jobs.append(job)
        return jobs

    def _files(self, rng, tiny: bool, workdir: Path) -> dict:
        sizes = self.tiny_sizes if tiny else self.sizes
        pool = {"system": [], "small": [], "multichain": [], "points": []}
        makers = [self._interval_file, self._chains_file, self._downset_file, self._random_file]
        for kind in ("system", "small"):
            (lo, hi), scale = sizes[kind]
            for f in range(12 if kind == "system" else 4):
                while True:
                    labels, family, convex = makers[f % len(makers)](rng, scale)
                    if lo <= len(family) <= hi:
                        break
                path = workdir / f"{kind}{f}.json"
                path.write_text(json.dumps(_family_payload(labels, family)))
                pool[kind].append({"path": str(path), "labels": labels, "family": family,
                                   "convex": convex})
        for f in range(3):
            n = rng.randint(5, 6 if tiny else 7)
            orders = _random_orders(rng, n, rng.choice((2, 3)))
            path = workdir / f"multichain{f}.json"
            path.write_text(json.dumps({"elements": [str(i) for i in range(n)],
                                        "orders": [list(r) for r in orders]}))
            pool["multichain"].append({"path": str(path), "n": n, "orders": orders})
        for f in range(3):
            n = 4 if tiny else 5
            coords = RelconvexPlane._general(rng, n)
            path = workdir / f"points{f}.json"
            path.write_text(json.dumps({"dim": 2, "points": [
                {"label": f"p{i}", "coords": [str(c) for c in p]} for i, p in enumerate(coords)]}))
            pool["points"].append({"path": str(path), "n": n, "coords": coords})
        return pool

    @staticmethod
    def _interval_file(rng, scale):
        n = rng.randint(*((3, 4), (3, 6), (8, 14))[scale])
        return tuple(str(i) for i in range(n)), orc.interval_family(n), True

    @staticmethod
    def _chains_file(rng, scale):
        n = rng.randint(*((3, 4), (4, 6), (7, 10))[scale])
        orders = _random_orders(rng, n, rng.choice((2, 3)))
        return tuple(str(i) for i in range(n)), orc.multichain_family(orders, n), True

    @staticmethod
    def _downset_file(rng, scale):
        m = rng.randint(*((3, 4), (4, 6), (7, 9))[scale])
        covers = [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.25]
        return tuple(f"e{i}" for i in range(m)), orc.downsets(m, orc.strict_below(m, covers)), True

    @staticmethod
    def _random_file(rng, scale):
        """Intersections of random sets: usually not a convex geometry,
        so failing verdicts and their witnesses get exercised."""
        n = rng.randint(*((3, 4), (4, 6), (8, 11))[scale])
        full = (1 << n) - 1
        generators = [rng.randrange(1, full) for _ in range(rng.randint(4, 9))]
        return tuple(f"x{i}" for i in range(n)), orc.intersections(generators, full), None

    def _gen_source(self, rng, arg, files, tiny, turn: int) -> dict:
        if arg == "chain-intervals":
            n = rng.randint(4, 8) if tiny else rng.randint(10, 16)
            return {"source": f"chain-intervals:{n}", "n": n}
        if arg == "too-large":
            return {"source": "chain-intervals:24", "expect_exit": 3}
        if arg == "perm":
            n = rng.randint(4, 6) if tiny else rng.randint(7, 10)
            perm = tuple(rng.sample(range(n), n))
            return {"source": "perm:" + json.dumps(list(perm)), "n": n, "perm": perm}
        spec = files[arg][turn % len(files[arg])]
        return {"source": f"{arg}:{spec['path']}", "spec": spec}

    def run(self, lib, job):
        Path(job["out"]).unlink(missing_ok=True)  # no stale output from an earlier pass
        with contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(job["argv"])
        return {"exit": code}

    def _output(self, job) -> str | None:
        path = Path(job["out"])
        return path.read_text() if path.exists() else None

    def digest(self, job, raw) -> dict:
        text = self._output(job)
        if text is not None and job["verb"] in ("check", "analyze"):
            report = json.loads(text)
            report.pop("timing_ms", None)
            text = json.dumps(report, sort_keys=True)
        return {"exit": raw["exit"], "output": None if text is None else orc.text_digest(text)}

    def verify(self, lib, job, raw, rng, deep: bool) -> list[str]:
        code = raw["exit"]
        text = self._output(job)
        if "expect_exit" in job:
            if code != job["expect_exit"] or text is not None:
                return [f"exit {code}, expected {job['expect_exit']} and no output"]
            return []
        if code not in (0, 1) or text is None or (code == 1 and job["verb"] != "check"):
            return [f"unexpected exit {code}"]
        try:
            body = json.loads(text) if not (job["verb"] == "export" and job["arg"] == "dot") else text
        except json.JSONDecodeError:
            return ["output is not JSON"]
        return getattr(self, "_verify_" + job["verb"])(job, code, body)

    # -- per verb --------------------------------------------------

    def _verify_gen(self, job, code, payload) -> list[str]:
        arg = job["arg"]
        if arg == "chain-intervals":
            truth = orc.interval_family(job["n"])
        elif arg == "perm":
            truth = orc.multichain_family([tuple(range(job["n"])), job["perm"]], job["n"])
        elif arg == "multichain":
            truth = orc.multichain_family(job["spec"]["orders"], job["spec"]["n"])
        else:
            spec = job["spec"]
            if "oracle" not in spec:
                spec["oracle"] = PlanarPoints(spec["coords"]).family()
            truth = spec["oracle"]
        got = sorted(sum(1 << i for i in ids) for ids in payload.get("closed", []))
        return [] if got == truth else ["generated family differs from the independent family"]

    def _lattice(self, spec) -> MaskLattice:
        if "lattice" not in spec:
            spec["lattice"] = MaskLattice(spec["family"])
        return spec["lattice"]

    def _verify_check(self, job, code, report) -> list[str]:
        spec = job["file"]
        name = job["arg"]
        holds = report["verdicts"].get(name)
        if holds is None or code != (0 if holds else 1):
            return ["verdict missing or exit code does not match it"]
        witness = report["witnesses"].get(name)
        names = {label: i for i, label in enumerate(spec["labels"])}
        lat = self._lattice(spec)
        full = (1 << len(spec["labels"])) - 1
        if name == "convex-geometry":
            truth = self._is_convex_geometry(spec)
            if holds != truth:
                return [f"convex-geometry verdict {holds}, expected {truth}"]
            if not holds and not self._anti_exchange_witness(spec, witness, names, full):
                return ["convex-geometry witness does not re-verify"]
        elif name in ("distributive", "modular"):
            # On convex geometries modular and distributive coincide.
            if (name == "distributive" or spec["convex"]) and holds != lat.is_distributive():
                return [f"{name} verdict {holds}, expected {not holds}"]
            if not holds:
                bad = _check_m3_n5(lat, witness, names)
                if bad:
                    return [bad]
        elif name == "characterization":
            if spec["convex"] and not holds:
                return ["characterization fails on a convex geometry"]
            if not holds and not self._characterization_witness(lat, witness, names):
                return ["characterization witness does not re-verify"]
        elif name == "super-solvable":
            ordering = report["results"].get("ordering")
            if holds and not self._super_solvable(spec, ordering):
                return ["super-solvable ordering does not re-verify"]
        return []

    @staticmethod
    def _closures(spec):
        if "closures" not in spec:
            n = len(spec["labels"])
            full = (1 << n) - 1
            spec["closures"] = {
                (a, x): orc.close_in(spec["family"], a | 1 << x, full)
                for a in spec["family"] for x in range(n) if not a >> x & 1
            }
        return spec["closures"]

    def _is_convex_geometry(self, spec) -> bool:
        if "is_convex" not in spec:
            closures = self._closures(spec)
            n = len(spec["labels"])
            ok = 0 in spec["family"]
            for a in spec["family"] if ok else ():
                outside = [x for x in range(n) if not a >> x & 1]
                if any(closures[a, y] >> x & 1 and closures[a, x] >> y & 1
                       for x in outside for y in outside if x != y):
                    ok = False
                    break
            spec["is_convex"] = ok
        return spec["is_convex"]

    def _anti_exchange_witness(self, spec, witness, names, full) -> bool:
        if witness is None:
            return False
        if witness.get("kind") == "zero-closure":
            return 0 not in spec["family"]
        a = sum(1 << names[s] for s in witness["closed_set"])
        x, y = names[witness["x"]], names[witness["y"]]
        fam = spec["family"]
        return (a in fam and x != y and not a >> x & 1 and not a >> y & 1
                and orc.close_in(fam, a | 1 << x, full) >> y & 1
                and orc.close_in(fam, a | 1 << y, full) >> x & 1)

    @staticmethod
    def _characterization_witness(lat: MaskLattice, witness, names) -> bool:
        def elem(label):
            return lat.index[orc.parse_set_label(label, names)]
        ji = set(lat.join_irreducibles())
        if witness.get("kind") == "non-spatial":
            y = elem(witness["element"])
            acc = 0
            for j in ji:
                if lat.leq(j, y):
                    acc = lat.join(acc, j)
            return acc != y
        y, u, v = elem(witness["y"]), elem(witness["u"]), elem(witness["v"])
        yu = lat.join(y, u)
        return u in ji and v in ji and u != v and yu != y and lat.join(y, v) == yu

    @staticmethod
    def _super_solvable(spec, ordering) -> bool:
        n = len(spec["labels"])
        if ordering is None or sorted(ordering) != list(range(n)):
            return False
        rank = {e: r for r, e in enumerate(ordering)}
        fam = set(spec["family"])
        for a in fam:
            for b in fam:
                diff = a & ~b
                if diff:
                    least = min(bits(diff), key=rank.__getitem__)
                    if a & ~(1 << least) not in fam:
                        return False
        return True

    def _verify_analyze(self, job, code, report) -> list[str]:
        spec = job["file"]
        lat = self._lattice(spec)
        results = report["results"]
        labels = ["{" + ",".join(spec["labels"][i] for i in bits(m)) + "}" for m in lat.masks]
        name = job["arg"].partition(":")[0]
        if name == "irreducibles":
            if (results.get("join_irreducibles") != [labels[i] for i in lat.join_irreducibles()]
                    or results.get("meet_irreducibles")
                    != [labels[i] for i in lat.meet_irreducibles()]):
                return ["irreducibles differ from the independent covers"]
        elif name == "independent":
            names = {label: i for i, label in enumerate(spec["labels"])}
            members = [names[s] for s in report["witnesses"].get("independent", [])]
            mask = sum(1 << i for i in members)
            full = (1 << len(spec["labels"])) - 1
            if results.get("independent_size") != len(members) or any(
                orc.close_in(spec["family"], mask & ~(1 << i), full) >> i & 1 for i in members
            ):
                return ["independent set witness does not re-verify"]
        elif name == "dimension":
            if results.get("join_dimension") != _width(lat, lat.meet_irreducibles()):
                return ["join dimension differs from the width of the meet-irreducibles"]
        else:
            boolean, omega = results.get("boolean_embeds", {}), results.get("omega_embeds", {})
            if set(boolean) != {"1", "2"} or set(omega) != {"1", "2"} or not boolean["1"] or (
                    omega["2"] and not omega["1"]):
                return ["obstruction results are incomplete or not monotone"]
        return []

    def _verify_export(self, job, code, body) -> list[str]:
        lat = self._lattice(job["file"])
        edges = {(i, j) for i, up in enumerate(lat.upper_covers()) for j in bits(up)}
        if job["arg"] == "dot":
            nodes = sum(1 for line in body.splitlines() if "[label=" in line)
            got = set()
            for line in body.splitlines():
                if "->" in line:
                    a, _, b = line.strip().rstrip(";").partition(" -> ")
                    got.add((int(a[1:]), int(b[1:])))
            ok = nodes == lat.size and got == edges
        else:
            got = sorted(sum(1 << i for i in ids) for ids in body["closed"])
            ok = got == lat.masks and {tuple(e) for e in body["covers"]} == edges
        return [] if ok else ["exported diagram differs from the independent covers"]


def _width(lat: MaskLattice, members) -> int:
    """Largest antichain among ``members`` (Dilworth via Kuhn matching)."""
    members = list(members)
    adj = [[j for j, b in enumerate(members) if a != b and lat.leq(a, b)] for a in members]
    match = [-1] * len(members)

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match[v] == -1 or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    matched = sum(augment(u, set()) for u in range(len(members)))
    return len(members) - matched


WORKLOADS = {w.name: w for w in (RelconvexPlane(), LatticeVerdicts(), ObstructionSearch(), CliFiles())}
