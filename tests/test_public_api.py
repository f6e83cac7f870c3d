"""Public-API smoke tests: top-level exports, README snippets, and the
remaining accessor edges."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest


class TestTopLevelExports:
    def test_all_symbols_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestReadmeSnippets:
    def test_quickstart_snippet(self):
        """The README's first code block, verbatim semantics."""
        import numpy as np
        from repro.engine import BurstEngine, EngineConfig
        from repro.nn import TransformerConfig
        from repro.topology import make_cluster, a800_node

        engine = BurstEngine(
            EngineConfig(model=TransformerConfig(
                vocab_size=128, dim=32, n_layers=2, n_heads=4,
                ffn_hidden=64, max_seq_len=128)),
            topology=make_cluster(8, node=a800_node(gpus_per_node=4)),
        )
        ids = np.random.default_rng(0).integers(0, 128, size=64)
        result = engine.train_step(ids, np.roll(ids, -1))
        assert np.isfinite(result.loss)
        assert result.step_comm_bytes > 0
        assert result.peak_activation_bytes > 0

    def test_method_snippet(self):
        from repro.attention import get_method
        from repro.masks import CausalMask
        from repro.topology import make_cluster

        rng = np.random.default_rng(1)
        q, k, v, grad_out = (rng.normal(size=(8, 64, 8)) for _ in range(4))
        method = get_method("burst", block_size=16)
        res = method.run(make_cluster(8), q, k, v, mask=CausalMask(),
                         do=grad_out)
        assert res.o.shape == q.shape
        assert res.dq is not None
        assert "attn-fwd" in res.comm.log.summary()
        assert res.traffic is res.comm.log

    def test_perf_snippet(self):
        from repro.engine import EngineConfig
        from repro.models import LLAMA_14B
        from repro.perf import EndToEndModel, TrainingSetup
        from repro.topology import make_cluster

        config = EngineConfig(model=LLAMA_14B, method="burst")
        r = EndToEndModel().step(
            TrainingSetup(config, make_cluster(32), 1 << 20))
        # the README's headline numbers
        assert r.tgs == pytest.approx(106.1, rel=0.02)
        assert r.mfu == pytest.approx(0.465, rel=0.02)
        assert r.memory.total_gb == pytest.approx(34.8, rel=0.02)


class TestRemainingAccessors:
    def test_engine_config_resolved_model(self):
        from repro.engine import EngineConfig
        from repro.nn import CheckpointPolicy, TransformerConfig
        from repro.nn.checkpoint import CheckpointMode

        cfg = EngineConfig(
            model=TransformerConfig(head_impl="naive"),
            checkpoint=CheckpointPolicy(CheckpointMode.FULL),
            head_impl="fused",
        )
        resolved = cfg.resolved_model()
        assert resolved.head_impl == "fused"
        assert resolved.checkpoint.mode is CheckpointMode.FULL
        # original untouched
        assert cfg.model.head_impl == "naive"

    def test_step_result_fsdp_matches_formula(self):
        from repro.engine import BurstEngine, EngineConfig, fsdp_step_traffic
        from repro.nn import TransformerConfig
        from repro.topology import a800_node, make_cluster

        topo = make_cluster(4, node=a800_node(gpus_per_node=4))
        engine = BurstEngine(
            EngineConfig(model=TransformerConfig(
                vocab_size=32, dim=16, n_layers=1, n_heads=2, ffn_hidden=24,
                max_seq_len=32, attn_block_size=16)),
            topology=topo,
        )
        ids = np.arange(16) % 32
        res = engine.train_step(ids, np.roll(ids, -1))
        replayed = sum(p.nbytes for p in engine.replayed_parameters())
        assert 0 < replayed < engine.param_bytes
        expected = fsdp_step_traffic(engine.param_bytes, 4, replayed)
        assert res.fsdp.allgather_bytes == expected.allgather_bytes
        assert res.fsdp.reduce_scatter_bytes == expected.reduce_scatter_bytes

    def test_trace_timeline_sorted(self):
        from repro.perf.des import Simulator

        sim = Simulator()
        sim.add("b", 1.0, resources=["r"])
        sim.add("a", 1.0, resources=["r"], deps=["b"])
        sim.run()
        timeline = sim.timeline()
        assert [t.name for t in timeline] == ["b", "a"]
        assert timeline[0].start <= timeline[1].start


class TestOneDefinitionPerCollective:
    def test_each_collective_is_defined_once_in_the_communicator(self):
        """ROADMAP aim 2, "one way to intercept a collective": the nine ops
        exist as ``def``s only on ``SimCommunicator``; every other layer is
        a stage of ``_deliver``, not a re-declaration."""
        import ast
        from pathlib import Path

        from repro.comm.communicator import COLLECTIVE_OPS

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        found: dict[str, list[str]] = {op: [] for op in COLLECTIVE_OPS}
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in found:
                    found[node.name].append(path.relative_to(src).as_posix())
        assert len(found) == 9
        assert found == {op: ["comm/communicator.py"] for op in found}


class TestOneKernelExecutionPath:
    def test_no_dense_mask_twin_and_no_second_backend(self):
        """ROADMAP aim 2, "no fast path that keeps its slow twin alive":
        a mask reaches a kernel only as a ``TilePlan`` and the kernels run
        on one orchestration, so the switches that selected the twins, the
        harness that compared them and every dense shard-mask
        materialisation outside the kernels' own oracle are gone."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        removed = (
            "use_planning", "planning_enabled", "ThreadedBackend",
            "REPRO_KERNEL_BACKEND", "REPRO_KERNEL_WORKERS", "include_bias",
        )
        may_materialise = ("kernels/", "masks/", "attention/verify.py")
        assert not (src / "perf" / "bench.py").exists()
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            text = path.read_text()
            assert [n for n in removed if n in text] == [], rel
            if rel.startswith(may_materialise):
                continue
            dense_calls = [
                node.lineno for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dense", "block")
            ]
            assert dense_calls == [], f"{rel}: lines {dense_calls}"


class TestOnePredictedObservedInstrument:
    def test_one_graph_one_writer_one_diff(self):
        """ROADMAP aim 2, "one Chrome-trace exporter, one critical-path
        builder": the DES and the tracer reach one function that assembles
        ``X`` / ``thread_name`` events, the ring-pass graph and the ring
        diff have no second copy, and ``repro.perf`` / ``repro.obs`` modules
        use each other through public names only."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        removed = (
            "_flat_or_double_pass", "_bidirectional_pass", "_diff_bidirectional",
            "observed_ring_counts_by_direction",
            "predicted_bidirectional_pass_counts",
        )
        assert not (src / "perf" / "trace.py").exists()
        literals = {("ph", "X"): [], ("name", "thread_name"): []}
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            text = path.read_text()
            assert [n for n in removed if n in text] == [], rel
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Dict):
                    pairs = {
                        (k.value, v.value) for k, v in zip(node.keys, node.values)
                        if isinstance(k, ast.Constant)
                        and isinstance(v, ast.Constant)
                    }
                    for pair in literals.keys() & pairs:
                        literals[pair].append(rel)
                if (
                    isinstance(node, ast.ImportFrom)
                    and rel.startswith(("perf/", "obs/"))
                    and (node.module or "").startswith("repro.")
                ):
                    private = [
                        a.name for a in node.names if a.name.startswith("_")
                    ]
                    assert private == [], f"{rel} imports {private}"
        assert literals == {
            ("ph", "X"): ["obs/export.py"],
            ("name", "thread_name"): ["obs/export.py"],
        }


class TestOneRingPassLoop:
    def test_one_loop_one_protocol_one_gather(self):
        """ROADMAP aim 2, "one mechanism per concern", for the numeric
        interpreter: the ring circulation (schedule transitions, the
        bidirectional flow, the return hop) is driven from ``ring_pass``
        alone, GQA has no ring kernels of its own, the checkpoint protocol
        is not re-spelled by the distributed node, and the inverse
        permutation gather has no private copies."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        circulation: dict[str, set[str]] = {}
        functions: dict[str, list[str]] = {}
        for package in ("attention", "engine", "nn"):
            for path in sorted((src / package).rglob("*.py")):
                rel = path.relative_to(src).as_posix()
                tree = ast.parse(path.read_text())
                functions[rel] = [
                    n.name for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef)
                ]
                for scope in ast.walk(tree):
                    if not isinstance(scope, ast.FunctionDef):
                        continue
                    for node in ast.walk(scope):
                        if not isinstance(node, ast.Call):
                            continue
                        f = node.func
                        drives_ring = (
                            isinstance(f, ast.Name)
                            and f.id == "BidirectionalFlow"
                        ) or (
                            isinstance(f, ast.Attribute)
                            and (
                                f.attr in ("apply_reverse", "apply_return",
                                           "return_permutation")
                                or (
                                    f.attr == "apply"
                                    and isinstance(f.value, ast.Name)
                                    and f.value.id == "schedule"
                                )
                            )
                        )
                        if drives_ring:
                            circulation.setdefault(rel, set()).add(scope.name)
        assert circulation == {"attention/ring.py": {"ring_pass"}}

        assert [
            (rel, name) for rel, names in functions.items() for name in names
            if name == "_gather" and not rel.startswith("nn/")
        ] == []
        assert [
            name for name in functions["attention/gqa.py"]
            if name.startswith(("gqa_ring", "gqa_burst"))
        ] == []
        node_src = (src / "engine" / "distributed_attention.py").read_text()
        assert "CheckpointMode" not in node_src

        from repro.attention import DistributedAttention, USPMethod

        assert "run" not in vars(USPMethod) and "gather" not in vars(USPMethod)
        assert USPMethod.run is DistributedAttention.run


class TestOneRingDescription:
    def test_one_layout_one_table_two_interpreters(self):
        """ROADMAP aim 2 for what circulates and when: the bundle layouts
        and the ring-family method table are declared once, in
        ``repro.comm.ring``; the executor hands ``ring_pass`` a declared
        layout, the DES walks the same schedule and layout, and the
        mirrored schedule helpers and per-module method lists are gone."""
        import ast
        from pathlib import Path

        from repro.comm import ring
        from repro.perf import METHOD_DES_FLAGS

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        removed = (
            "bidirectional_step_split", "_rev_transition_list",
            "_transition_durations", "RING_BACKWARDS", "GQA_METHODS",
            "RING_MODE_METHODS",
        )
        ring_pass_calls = 0
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            text = path.read_text()
            assert [n for n in removed if n in text] == [], rel
            for node in ast.walk(ast.parse(text)):
                private_schedule = (
                    isinstance(node, ast.Attribute) and node.attr == "_schedule"
                ) or (
                    isinstance(node, ast.Constant) and node.value == "_schedule"
                )
                assert not private_schedule or rel == "attention/methods.py", (
                    f"{rel}:{node.lineno} reaches a private schedule accessor"
                )
                if (
                    rel.startswith("attention/")
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "ring_pass"
                ):
                    ring_pass_calls += 1
                    carried = node.args[3]
                    tag = {kw.arg: kw.value for kw in node.keywords}["tag"]
                    for arg, attr in ((carried, "carried"), (tag, "tag")):
                        assert isinstance(arg, ast.Attribute), ast.dump(arg)
                        assert arg.attr == attr
                        assert isinstance(
                            getattr(ring, arg.value.id), ring.BundleLayout
                        )
                    assert carried.value.id == tag.value.id
        assert ring_pass_calls == 3
        assert len(METHOD_DES_FLAGS) == 6
        for row in METHOD_DES_FLAGS.values():
            assert not {"flat", "alg2"} & set(row)


class TestTilePlansBuiltOnceSizedOnce:
    """ROADMAP aim 1's tile levers, each written once: the tile size and
    the run budget are derived in ``repro.kernels.tileplan`` and nowhere
    defaulted, a plan (with its memo, boolean tiles and bias cache) is
    constructed by ``TilePlan.build`` and nowhere else, the key loop's
    runs are formed by one function for the plan and the dense oracle
    alike, and only the flash kernels fold a row statistic into a GEMM."""

    HOME = "kernels/tileplan.py"

    @staticmethod
    def _sources():
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            yield path.relative_to(src).as_posix(), text, ast.parse(text)

    def test_no_tile_size_parameter_has_an_integer_default(self):
        """``None`` = derived by ``tile_size``; an explicit integer comes
        from a caller, never from a signature or a config field."""
        import ast

        tile_params = ("block_size", "block_q", "block_k", "attn_block_size")
        offenders = []
        for rel, _, tree in self._sources():
            if rel == "testing/differential.py":
                continue  # FuzzCase records the explicit size it ran with
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = node.args
                    positional = a.posonlyargs + a.args
                    defaults = list(zip(positional[::-1], a.defaults[::-1]))
                    defaults += list(zip(a.kwonlyargs, a.kw_defaults))
                    named = [(arg.arg, value) for arg, value in defaults]
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    named = [(node.target.id, node.value)]  # a config field
                else:
                    continue
                offenders += [
                    f"{rel}:{node.lineno} {name}={value.value}"
                    for name, value in named
                    if name in tile_params
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, int)
                ]
        assert offenders == []

    def test_the_tile_size_literals_live_in_tileplan(self):
        from repro.kernels import tileplan

        assert (tileplan.MAX_TILE, tileplan.MIN_TILE) == (128, 16)
        assert tileplan.SCORE_TILE_ELEMS == 65536
        assert tileplan.RUN_TILE_ELEMS == tileplan.SCORE_TILE_ELEMS
        names = ("MAX_TILE", "MIN_TILE", "SCORE_TILE_ELEMS", "DEFAULT_BLOCK",
                 "RUN_TILE_ELEMS")
        for rel, text, _ in self._sources():
            if rel != self.HOME:
                assert [n for n in names if n in text] == [], rel

    def test_runs_are_formed_by_one_function_and_folds_live_in_flash(self):
        import ast

        def referenced(tree, name):
            return any(
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.alias) and node.name == name
                or isinstance(node, ast.FunctionDef) and node.name == name
                for node in ast.walk(tree)
            )

        flash = "kernels/flash.py"
        for rel, text, tree in self._sources():
            # the plan and the dense oracle: the same run-forming function
            assert referenced(tree, "key_runs") == (rel in (self.HOME, flash))
            assert referenced(tree, "run_width") == (rel in (self.HOME, flash))
            # [V | 1], [K | 1], [Q~ | -lse], [dO | -D]: one helper, one home
            assert ("_augment" in text) == (rel == flash), rel
            if rel != flash:
                continue
            definitions = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in ("key_runs", "_augment")
            ]
            assert [d.name for d in definitions] == ["_augment"]
            # ... and flash.py widens an operand no other way
            widening = ("concatenate", "hstack", "stack", "pad", "ones",
                        "append", "column_stack")
            assert [
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in widening
            ] == []

    def test_plans_and_their_caches_are_constructed_in_tileplan_only(self):
        import ast

        constructors = ("TilePlan", "BiasTileCache", "_PlanTable")
        # the memo's home and the plumbing it replaced
        gone = ("_tile_plans", "_PlanTable", "bias_cache=", "assume_full",
                "record_shard_skip")
        for rel, text, tree in self._sources():
            if rel == self.HOME:
                assert "record_shard_skip" not in text
                assert "assume_full" not in text
                continue
            assert [n for n in gone if n in text] == [], rel
            built = [
                node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in constructors
            ]
            assert built == [], f"{rel}: lines {built}"


class TestOneForwardRecurrence:
    """The forward softmax state is written once, as begin / accumulate /
    finish in ``kernels/flash.py``: a ring pass carries it across kernel
    calls, a lone call runs the same three steps, and nothing under
    ``repro.attention`` re-normalises partial outputs to merge them."""

    @staticmethod
    def _functions_with(tree, predicate):
        import ast

        return sorted({
            scope.name for scope in ast.walk(tree)
            if isinstance(scope, ast.FunctionDef)
            and any(predicate(node) for node in ast.walk(scope))
        })

    def test_begin_accumulate_finish_each_appear_once(self):
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted((src / "attention").rglob("*.py")):
            tree = ast.parse(path.read_text())
            assert not any(
                isinstance(n, ast.Name) and n.id == "merge_states"
                or isinstance(n, ast.alias) and n.name == "merge_states"
                or isinstance(n, ast.Attribute) and n.attr == "merge_states"
                for n in ast.walk(tree)
            ), path.name

        tree = ast.parse((src / "kernels" / "flash.py").read_text())

        def calls(attr):
            return lambda n: (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == attr
            )

        def divides(n):
            return isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(
                n.op, ast.Div
            )

        # finish: the only log, and the only division besides the default
        # softmax scale 1 / sqrt(d)
        assert self._functions_with(tree, calls("log")) == ["finish"]
        assert self._functions_with(tree, divides) == [
            "begin", "finish", "flash_backward_tiles",
        ]
        # accumulate: the only running-max update, and it sits inside the
        # one run loop — the bounded forward is a per-call condition in that
        # loop, not a second driver
        assert self._functions_with(tree, calls("maximum")) == [
            "_forward_accumulate"
        ]
        accumulate = next(
            n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == "_forward_accumulate"
        )
        loops = [n for n in ast.walk(accumulate) if isinstance(n, ast.For)]
        run_loops = [
            n for n in loops
            if isinstance(n.iter, ast.Name) and n.iter.id == "runs"
        ]
        assert len(loops) == 2 and len(run_loops) == 1  # q blocks, runs
        in_run_loop = {id(n) for n in ast.walk(run_loops[0])}
        assert all(
            id(n) in in_run_loop
            for n in ast.walk(accumulate) if calls("maximum")(n)
        )
        # begin: m = 0; the switch to the running max and finish are the
        # only places a -inf is stored
        assert self._functions_with(tree, calls("full")) == []
        assert self._functions_with(
            tree,
            lambda n: isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Name) and n.value.id == "NEG_INF",
        ) == ["finish", "stays_bounded"]
        # ... and one entry point drives all three, state or no state
        drivers = self._functions_with(
            tree,
            lambda n: isinstance(n, ast.Name) and n.id == "_forward_accumulate",
        )
        assert drivers == ["flash_attention_forward"]
        forward = next(
            n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)
            and n.name == "flash_attention_forward"
        )
        names = {n.attr for n in ast.walk(forward) if isinstance(n, ast.Attribute)}
        assert {"begin", "finish"} <= names


def _scopes(tree, match, scope=""):
    """``(enclosing class/function path)`` of every node ``match`` accepts."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if match(child):
            yield scope
        yield from _scopes(child, match, inner)


def _block_body():
    """``TransformerBlock._body`` of ``nn/modules.py``, parsed."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "src/repro/nn/modules.py"
    (body,) = [
        f for c in ast.walk(ast.parse(path.read_text()))
        if isinstance(c, ast.ClassDef) and c.name == "TransformerBlock"
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "_body"
    ]
    return body


class TestTheNodeOwnsItsRecompute:
    """A checkpoint policy is data on the block's node: the node keeps the
    policy's rows of ``(O, lse)`` and rebuilds the rest in its own
    backward.  No layer is re-run, so nothing needs to know it is inside a
    replay: no recompute flag, no output cache, no unread tail, and no
    autograd node that runs a model layer or a checkpoint inside itself."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    FLAG = re.compile(r"recompute|replay|first_pass")

    def _trees(self, under=""):
        for path in sorted((self.SRC / under).rglob("*.py")):
            yield path.relative_to(self.SRC).as_posix(), ast.parse(path.read_text())

    def test_no_module_level_recompute_flag_under_nn(self):
        """No module under ``nn/`` holds a recompute or replay flag: no
        module-level name or ``global`` mentions one, and the one
        module-level boolean there is the ``no_grad`` state (the
        strict-release switch lives with the ledger, in ``obs/mem.py``)."""
        named, flags = set(), set()
        for rel, tree in self._trees("nn"):
            for node in tree.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign)
                           else [])
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    named.add((rel, target.id))
                    if (isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, bool)):
                        flags.add((rel, target.id))
            for node in ast.walk(tree):
                if isinstance(node, ast.Global):
                    named.update((rel, name) for name in node.names)
        assert not {n for n in named if self.FLAG.search(n[1])}, named
        assert flags == {("nn/tensor.py", "_grad_enabled")}

    def test_no_function_runs_a_module_or_checkpoint(self):
        """No autograd ``Function``'s ``forward`` / ``backward`` calls a
        model layer (an attribute some ``__init__`` binds to a layer, the
        node's ``layer`` or a tail's ``norm`` / ``ffn``) or a checkpoint —
        the generic :class:`~repro.nn.checkpoint.Checkpoint` alone re-runs
        the function it is handed."""
        trees = dict(self._trees())
        classes = {c.name: c for tree in trees.values()
                   for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
        layers, grown = {"Module"}, True
        functions = {"Function"}
        while grown:
            grown = False
            for name, c in classes.items():
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                         for b in c.bases}
                for family in (layers, functions):
                    if bases & family and name not in family:
                        family.add(name)
                        grown = True
        bound = {"layer", "norm", "ffn", "attn_factory"}
        for tree in trees.values():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id in layers | {"attn_factory"}):
                    bound.update(t.attr for t in node.targets
                                 if isinstance(t, ast.Attribute))
        assert {"wq", "wo", "attn", "ffn", "norm1", "gate"} <= bound

        def runs_a_layer(call):
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else "")
            owner = (func.value.id if isinstance(func, ast.Attribute)
                     and isinstance(func.value, ast.Name) else None)
            return (name in bound or name in ("checkpoint", "forward")
                    or name == "apply" and owner == "Checkpoint")

        found = {
            (c.name, f.name, ast.unparse(n.func))
            for c in classes.values() if c.name in functions - {"Checkpoint"}
            for f in c.body
            if isinstance(f, ast.FunctionDef) and f.name in ("forward", "backward")
            for n in ast.walk(f) if isinstance(n, ast.Call) and runs_a_layer(n)
        }
        assert found == set()

    def test_the_block_applies_no_checkpoint(self):
        """``TransformerBlock`` names no checkpoint, and the model module
        imports none."""
        (tree,) = [t for rel, t in self._trees("nn") if rel == "nn/modules.py"]
        (block,) = [c for c in tree.body if isinstance(c, ast.ClassDef)
                    and c.name == "TransformerBlock"]
        names = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(block) if isinstance(n, (ast.Name, ast.Attribute))}
        assert not names & {"checkpoint", "Checkpoint"}
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not imported & {"checkpoint", "Checkpoint"}

    def test_the_replay_machinery_is_defined_nowhere(self):
        """``AttentionOutputCache``, ``in_recompute``, ``in_first_pass``,
        ``unread`` (or ``tail_unread``) name no class, function, argument,
        field or variable under ``src/repro``."""
        gone = {"AttentionOutputCache", "in_recompute", "in_first_pass",
                "unread", "tail_unread"}
        defined = set()
        for rel, tree in self._trees():
            for n in ast.walk(tree):
                if isinstance(n, (ast.ClassDef, ast.FunctionDef)):
                    defined.add((rel, n.name))
                elif isinstance(n, ast.arg):
                    defined.add((rel, n.arg))
                elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    defined.add((rel, n.id))
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                    defined.add((rel, n.attr))
                elif isinstance(n, ast.keyword):
                    defined.add((rel, n.arg))
        assert {d for d in defined if d[1] in gone} == set()

    def test_one_tail_and_one_ffn_node(self):
        """Every block folds its FFN into its attention node, under no
        condition: ``TransformerBlock._body`` alone builds the ``FFNTail``
        and reads no ``mlp_chunk_size``.  Only ``SwiGLU.forward`` builds
        an FFN node of its own (a standalone module), and no source keeps
        a graph-only FFN."""
        def builds_node(n):
            return isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == "blockwise_mlp"
                or isinstance(n.func, ast.Attribute)
                and n.func.attr == "apply"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "BlockwiseMLPFn"
            )

        def builds_tail(n):
            return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "FFNTail")

        found = {"builds": set(), "tails": set()}
        for rel, tree in self._trees():
            text = ast.unparse(tree)
            assert "graph_only" not in text and "output_unread" not in text, rel
            found["builds"].update((rel, s) for s in _scopes(tree, builds_node))
            found["tails"].update((rel, s) for s in _scopes(tree, builds_tail))
        assert found == {
            "builds": {("nn/modules.py", "SwiGLU.forward"),
                       ("nn/mlp_fn.py", "blockwise_mlp")},
            "tails": {("nn/modules.py", "TransformerBlock._body")},
        }
        body = _block_body()
        conditional = [n for n in ast.walk(body)
                       if isinstance(n, (ast.If, ast.IfExp, ast.BoolOp))]
        assert not any(builds_tail(n) for c in conditional
                       for n in ast.walk(c))
        assert [n for n in body.body if isinstance(n, ast.Return)
                and any(builds_tail(m) for m in ast.walk(n))]
        assert "mlp_chunk_size" not in ast.unparse(body)


class TestOneModelImplementation:
    """One implementation of every model layer: ``repro.nn.modules``.  The
    engine swaps in its distributed attention through the one
    ``attn_factory`` hook; no other module forks a layer's ``forward`` or
    builds a model around its own attention."""

    LAYERS = {"SwiGLU", "CausalSelfAttention", "TransformerBlock",
              "TransformerLM"}

    @staticmethod
    def _trees():
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            yield path.relative_to(src).as_posix(), ast.parse(path.read_text())

    def test_only_the_distributed_attention_subclasses_a_layer(self):
        found = {
            (rel, node.name)
            for rel, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                (base.id if isinstance(base, ast.Name)
                 else getattr(base, "attr", None)) in self.LAYERS
                for base in node.bases
            )
        }
        assert found == {
            ("engine/distributed_attention.py", "DistributedCausalSelfAttention"),
        }

    def test_a_layer_subclass_replaces_only_the_attend_step(self):
        """``CausalSelfAttention.forward`` is the one layer forward: it
        builds the layer's one node.  A subclass overrides no method but
        its own ``__init__``; all it replaces is the node class it builds
        (``node = …``), whose product runs elsewhere."""
        members = {
            (rel, node.name, name)
            for rel, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                (base.id if isinstance(base, ast.Name)
                 else getattr(base, "attr", None)) in self.LAYERS
                for base in node.bases
            )
            for item in node.body
            for name in (
                [item.name] if isinstance(item, ast.FunctionDef)
                else [t.id for t in item.targets if isinstance(t, ast.Name)]
                if isinstance(item, ast.Assign) else []
            )
            if name != "__init__"
        }
        assert members == {
            ("engine/distributed_attention.py",
             "DistributedCausalSelfAttention", "node"),
        }

    def test_one_node_projects_q_k_and_v(self):
        """The q/k/v projections are written once, inside the attention
        node: ``AttentionFn._qkv`` — run by its forward and rebuilt by its
        backward — and no projection or head-view node exists besides."""
        def calls(name):
            return lambda n: isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == name
                or isinstance(n.func, ast.Attribute) and n.func.attr == name
            )

        found = {
            (rel, s) for rel, tree in self._trees()
            for s in _scopes(tree, calls("_qkv"))
        }
        assert found == {("nn/attention_fn.py", "AttentionFn.forward"),
                         ("nn/attention_fn.py", "AttentionFn.backward")}
        for rel, tree in self._trees():
            names = {n.name for n in ast.walk(tree)
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
            assert not names & {"QKVProjectionFn", "HeadsFn", "qkv_heads"}, rel

    def test_only_the_engine_passes_an_attention_factory(self):
        def passes_factory(n):
            return isinstance(n, ast.Call) and any(
                kw.arg == "attn_factory" for kw in n.keywords
            )

        found = {
            (rel, scope)
            for rel, tree in self._trees()
            for scope in _scopes(tree, passes_factory)
        }
        assert found == {
            ("engine/engine.py", "BurstEngine.__init__"),
            # the model handing the hook down to its blocks
            ("nn/modules.py", "TransformerLM.__init__"),
        }


class TestOneAttentionNode:
    """ROADMAP aim 2 for the attention half of a layer: one autograd node
    (``nn.attention_fn.AttentionFn``) runs ``norm1 → q/k/v → RoPE →
    attend → merge → wo``; the checkpoint cache protocol is written once,
    in that node; the engine's node replaces only where the attention
    product runs — its forward, its backward and the context it saves."""

    _trees = staticmethod(TestOneModelImplementation._trees)

    @pytest.mark.parametrize("engine", [False, True], ids=["local", "engine"])
    def test_a_block_builds_one_attention_node(self, engine):
        """The attention half's output hangs off one node whose inputs are
        the block input and parameters only: no node sits between."""
        from repro.engine import BurstEngine, DistributedAttentionFn, EngineConfig
        from repro.nn import Tensor, TransformerConfig, TransformerLM
        from repro.nn.attention_fn import AttentionFn
        from repro.topology import make_cluster

        config = TransformerConfig(n_layers=1, position_encoding="rope")
        model = (BurstEngine(EngineConfig(model=config),
                             topology=make_cluster(4)).model
                 if engine else TransformerLM(config))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(0).normal(size=(32, config.dim)),
                   requires_grad=True)
        out = block.attn(x, norm=block.norm1)
        fn, inputs = out._ctx
        assert type(fn) is (DistributedAttentionFn if engine else AttentionFn)
        params = {id(p) for p in (block.norm1.weight, *block.attn.parameters())}
        assert all(t is x or id(t) in params for t in inputs)
        assert [n for n, _ in block.named_parameters()] == [
            "norm1.weight", "attn.wq.weight", "attn.wk.weight",
            "attn.wv.weight", "attn.wo.weight", "norm2.weight",
            "ffn.gate.weight", "ffn.up.weight", "ffn.down.weight",
        ]

    def test_no_standalone_wo_matmul_or_head_view_in_a_layer(self):
        """The layer forward calls nothing but the node, the block calls
        the attention once, and no head-view or projection node class
        exists (``test_one_node_projects_q_k_and_v``)."""
        for rel, tree in self._trees():
            if rel != "nn/modules.py":
                continue
            (forward,) = [
                f for c in ast.walk(tree)
                if isinstance(c, ast.ClassDef) and c.name == "CausalSelfAttention"
                for f in c.body
                if isinstance(f, ast.FunctionDef) and f.name == "forward"
            ]
            called = {
                ast.unparse(n.func) for n in ast.walk(forward)
                if isinstance(n, ast.Call)
            }
            assert called == {"ops.pre_norm_inputs", "self.node.apply"}
            (body,) = [
                f for c in ast.walk(tree)
                if isinstance(c, ast.ClassDef) and c.name == "TransformerBlock"
                for f in c.body
                if isinstance(f, ast.FunctionDef) and f.name == "_body"
            ]
            attn_calls = [n for n in ast.walk(body) if isinstance(n, ast.Call)
                          and ast.unparse(n.func) == "self.attn"]
            assert len(attn_calls) == 1
        wo = [
            (rel, scope) for rel, tree in self._trees()
            for scope in _scopes(tree, lambda n: isinstance(n, ast.Attribute)
                                 and n.attr == "wo")
        ]
        assert sorted(wo) == [
            ("nn/modules.py", "CausalSelfAttention.__init__"),
            ("nn/modules.py", "CausalSelfAttention.forward"),
        ]

    def test_the_cache_protocol_has_one_home(self):
        """What a layer keeps of ``(O, lse)`` is decided in one place:
        ``AttentionFn._save`` alone reads the policy's cached rows (the
        byte-exact memory model's ``node_kept_elems`` also reads them), and
        ``AttentionFn._recompute`` alone rebuilds the rest."""
        def reads_rows(n):
            return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "cached_rows")

        def recomputes(n):
            return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("_recompute", "add_recompute_flops"))

        found = {
            (rel, scope) for rel, tree in self._trees()
            for scope in _scopes(tree, reads_rows)
        }
        assert found == {
            ("nn/attention_fn.py", "AttentionFn._save"),
            ("perf/memory.py", "node_kept_elems"),
        }
        assert {
            (rel, scope) for rel, tree in self._trees()
            for scope in _scopes(tree, recomputes)
        } == {("nn/attention_fn.py", "AttentionFn.backward"),
              ("nn/attention_fn.py", "AttentionFn._recompute")}

    def test_the_engine_subclass_overrides_only_the_attention_product(self):
        from repro.engine import DistributedAttentionFn
        from repro.nn.attention_fn import AttentionFn

        defined = {
            name for name, value in vars(DistributedAttentionFn).items()
            if callable(value)
        }
        assert defined == {"_attend", "_attend_backward", "_save"}
        assert all(name in vars(AttentionFn) for name in defined)
        assert DistributedAttentionFn.__bases__ == (AttentionFn,)


class TestOneBlockNode:
    """Every block is one autograd node: the attention node with the
    residual, ``norm2`` and the FFN folded in
    (``nn.attention_fn.FFNTail``), dense or chunked.  No ``Add``, dropout
    or ``BlockwiseMLPFn`` node sits beside it, the block calls its
    attention once, no model source composes an FFN out of ``ops`` nodes,
    and the engine's node still replaces only the attention product."""

    _trees = staticmethod(TestOneModelImplementation._trees)

    @pytest.mark.parametrize("engine", [False, True], ids=["local", "engine"])
    def test_a_fused_block_applies_one_node(self, engine):
        """With dropout on, the block's output hangs off one node whose
        inputs are the block input and the block's parameters, in order
        (a replay's one node: ``tests/test_blockwise_mlp.py``)."""
        from repro.engine import BurstEngine, DistributedAttentionFn, EngineConfig
        from repro.nn import CheckpointPolicy, Tensor, TransformerConfig, TransformerLM
        from repro.nn.attention_fn import AttentionFn
        from repro.topology import make_cluster

        config = TransformerConfig(n_layers=1, mlp_chunk_size=8, dropout_p=0.1)
        model = (BurstEngine(EngineConfig(model=config,
                                          checkpoint=CheckpointPolicy()),
                             topology=make_cluster(4)).model
                 if engine else TransformerLM(config))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(0).normal(size=(32, config.dim)),
                   requires_grad=True)
        out = block(x)
        fn, inputs = out._ctx
        assert type(fn) is (DistributedAttentionFn if engine else AttentionFn)
        assert [id(t) for t in inputs] == [id(x)] * 3 + [
            id(p) for p in block.parameters()]
        out.backward(np.ones(out.shape))

    def test_the_block_calls_its_attention_once_and_no_ffn_node(self):
        called = [ast.unparse(n.func) for n in ast.walk(_block_body())
                  if isinstance(n, ast.Call)]
        assert called.count("self.attn") == 1
        assert not {"blockwise_mlp", "BlockwiseMLPFn.apply"} & set(called)

    def test_no_source_composes_an_ffn(self):
        """``ops.silu`` / ``ops.mul`` (the composed SwiGLU's nodes) are
        called nowhere under ``src/repro`` but in ``nn/ops.py`` itself
        (and ``Tensor``'s ``*`` operator): the composed FFN lives on only
        as the tests' reference (``tests/block_chain.py``)."""
        def composes(n):
            if not isinstance(n, ast.Call):
                return False
            func = n.func
            if isinstance(func, ast.Name):
                name, owner = func.id, None
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)):
                name, owner = func.attr, func.value.id
            else:
                return False
            return (name in ("silu", "mul") and owner in (None, "ops")
                    or name == "apply" and owner in ("SiLU", "Mul"))

        found = {
            (rel, scope) for rel, tree in self._trees()
            for scope in _scopes(tree, composes)
        }
        assert {rel for rel, _ in found} <= {"nn/ops.py"}, found

    def test_the_engine_node_still_defines_only_its_three_methods(self):
        from repro.engine import DistributedAttentionFn

        assert {name for name, value in vars(DistributedAttentionFn).items()
                if callable(value)} == {"_attend", "_attend_backward", "_save"}


class TestOneRMSNorm:
    """The RMSNorm expressions are written once, in ``ops.PreNormFn``
    (``RMSNormFn`` and the three nodes that fold a norm in all inherit
    them), and no training forward builds a standalone norm node in front
    of a fused reader: a block hands ``norm1`` / ``norm2`` on to its one
    node and the model hands ``final_norm`` on to its head node.  Only
    inference (``TransformerLM.logits``) calls a norm module."""

    @staticmethod
    def _found(match):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        return {
            (path.relative_to(src).as_posix(), scope)
            for path in sorted(src.rglob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), match)
        }

    def test_the_norm_expressions_exist_once(self):
        def inverse_root_power(n):  # ``a ** -0.5`` / ``a ** -1.5``
            return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                    and isinstance(n.right, ast.UnaryOp)
                    and isinstance(n.right.op, ast.USub)
                    and isinstance(n.right.operand, ast.Constant)
                    and n.right.operand.value % 1 == 0.5)

        def row_mean(n):  # ``….mean(…, keepdims=True)``
            return (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "mean"
                    and any(kw.arg == "keepdims"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in n.keywords))

        assert self._found(inverse_root_power) == {
            ("nn/ops.py", "PreNormFn._normed"),
            ("nn/ops.py", "PreNormFn._norm_backward"),
            ("nn/schedule.py", "InverseSqrtLR.lr_at"),  # not a norm
        }
        assert self._found(row_mean) == {("nn/ops.py", "PreNormFn._norm_inputs")}

    def test_no_standalone_norm_before_a_fused_reader(self):
        def calls(name):
            return lambda n: isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == name
                or isinstance(n.func, ast.Attribute) and n.func.attr == name
            )

        def applies_norm_node(n):
            return (isinstance(n, ast.Attribute) and n.attr == "apply"
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "RMSNormFn")

        assert self._found(applies_norm_node) == {("nn/ops.py", "rms_norm")}
        assert self._found(calls("rms_norm")) == {
            ("nn/modules.py", "RMSNorm.forward")}
        # a norm module is called only by inference; the block hands its
        # two norms on, the training forward the final one
        assert self._found(calls("norm")) == set()
        assert self._found(calls("final_norm")) == {
            ("nn/modules.py", "TransformerLM.logits")}
        for name in ("norm1", "norm2"):
            assert self._found(calls(name)) == set()
        handed_on = self._found(
            lambda n: isinstance(n, ast.keyword) and n.arg == "norm"
            and isinstance(n.value, ast.Attribute)
            and n.value.attr in ("norm1", "norm2")
        )
        assert handed_on == {("nn/modules.py", "TransformerBlock._body")}
        final_handed_on = self._found(
            lambda n: calls("pre_norm_inputs")(n) and any(
                isinstance(a, ast.Attribute) and a.attr == "final_norm"
                for a in n.args)
        )
        assert final_handed_on == {("nn/modules.py", "TransformerLM.forward")}

    def test_the_head_folds_the_final_norm_once(self):
        """The head node's norm backward is ``PreNormFn._norm_backward``,
        called by each folding node and defined nowhere else, and the
        engine's vocab-parallel head inherits the fold: it replaces only
        the step that produces ``(loss, dH, dW)``."""
        from repro.engine.distributed_head import VocabParallelHeadLossFn
        from repro.nn.modules import FusedLMHeadLossFn
        from repro.nn.ops import PreNormFn

        def defines(name):
            return lambda n: isinstance(n, ast.FunctionDef) and n.name == name

        def calls_norm_backward(n):
            return (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "_norm_backward")

        assert self._found(defines("_norm_backward")) == {("nn/ops.py", "PreNormFn")}
        assert self._found(calls_norm_backward) == {
            ("nn/ops.py", "RMSNormFn.backward"),
            ("nn/attention_fn.py", "AttentionFn.backward"),
            ("nn/mlp_fn.py", "BlockwiseMLPFn._ffn_backward"),
            ("nn/modules.py", "FusedLMHeadLossFn.forward"),
        }
        assert issubclass(FusedLMHeadLossFn, PreNormFn)
        assert issubclass(VocabParallelHeadLossFn, FusedLMHeadLossFn)
        assert {name for name, value in vars(VocabParallelHeadLossFn).items()
                if callable(value)} == {"_head"}


class TestSavedActivationsRegisteredOnce:
    """A saved activation enters the memory tracker through the node that
    saves it — ``Function.save_for_backward``, released wherever the
    node's state is.  Besides it only the attention-output cache, the LM
    head's resident footprint and the memory gate's injected leak
    register; a second handle beside a node's is not released by
    ``Function.apply`` when the output needs no gradient.  The transient
    series' one caller is its scope entry point (``transient_alloc`` is
    the ledger's own ``register``)."""

    def test_register_is_called_from_five_places(self):
        from pathlib import Path

        def register_call(n):
            return (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "register")

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        callers = {
            (path.relative_to(src).as_posix(), scope)
            for path in sorted(src.rglob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), register_call)
        }
        assert callers == {
            ("nn/function.py", "Function.save_for_backward"),
            ("nn/attention_fn.py", "AttentionFn._recompute"),
            ("nn/modules.py", "FusedLMHeadLossFn.forward"),
            ("obs/__main__.py", "_memdiff_inject"),
            ("obs/mem.py", "transient_scope"),
        }


class TestOneCheckpointPolicyDescription:
    """ROADMAP aim 2 for checkpointing: every policy is a recomputed-front
    fraction declared once, in ``nn/checkpoint.py``.  The replay, both
    memory models, the time model and the FSDP pass counts read that
    declaration; none of them branches on the mode."""

    def test_no_module_compares_against_a_policy(self):
        import ast
        from pathlib import Path

        from repro.nn.checkpoint import CheckpointMode

        names = {mode.value for mode in CheckpointMode}
        # "full" / "none" also name masks and head modes: flag those two
        # only when the comparison reads a checkpoint policy.
        distinct = names - {"full", "none"}
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        found = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if rel == "nn/checkpoint.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Compare):
                    continue
                text = ast.unparse(node)
                about_policy = any(
                    w in text for w in ("checkpoint", "policy", "ckpt")
                )
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "CheckpointMode"
                    ) or (
                        isinstance(sub, ast.Constant)
                        and sub.value in names
                        and (sub.value in distinct or about_policy)
                    ):
                        found.append((rel, node.lineno, text))
        assert found == []

    def test_the_policy_keeps_its_two_fields(self):
        from dataclasses import fields

        from repro.nn.checkpoint import CheckpointPolicy

        assert [f.name for f in fields(CheckpointPolicy)] == [
            "mode", "split_fraction",
        ]
        assert not hasattr(CheckpointPolicy, "cached_fraction")


class TestFSDPReGathersOneReadSet:
    """One step's FSDP traffic is logged from one place, and the set its
    replay re-gathers is named in one place: ``BurstEngine._step`` calls
    ``log_fsdp_traffic`` with the bytes of
    ``BurstEngine.replayed_parameters``, the only engine code that reads
    whether a block replays.  ``tests/test_fsdp_read_set.py`` holds that
    set to the parameters a replay's nodes are executed with."""

    @staticmethod
    def _scopes_of(match):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        return sorted(
            (path.relative_to(src).as_posix(), scope)
            for path in sorted(src.rglob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), match)
        )

    @staticmethod
    def _calls(name):
        def match(n):
            return isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == name
                or isinstance(n.func, ast.Attribute) and n.func.attr == name
            )

        return match

    def test_one_caller_logs_the_step_traffic(self):
        step = [("engine/engine.py", "BurstEngine._step")]
        assert self._scopes_of(self._calls("log_fsdp_traffic")) == step
        assert self._scopes_of(self._calls("replayed_parameters")) == step

    def test_one_place_names_the_replayed_set(self):
        assert self._scopes_of(
            lambda n: isinstance(n, ast.FunctionDef)
            and n.name == "replayed_parameters"
        ) == [("engine/engine.py", "BurstEngine")]
        reads = [
            (rel, scope) for rel, scope in self._scopes_of(
                lambda n: isinstance(n, ast.Attribute) and n.attr == "replays")
            if rel.startswith("engine/")
        ]
        # ... and the node's keep rule for a product with its own context
        assert reads == [
            ("engine/distributed_attention.py", "DistributedAttentionFn._save"),
            ("engine/engine.py", "BurstEngine.replayed_parameters"),
        ]
        # the knob it replaced is gone, not kept beside it
        assert self._scopes_of(
            lambda n: isinstance(n, ast.arg) and n.arg == "gather_passes"
            or isinstance(n, ast.keyword) and n.arg == "gather_passes"
        ) == []


class TestOneHeadParallelExecutor:
    def test_ulysses_is_usp_on_a_one_position_ring(self):
        """ROADMAP aim 2 for head parallelism: DeepSpeed-Ulysses is USP
        with ``u = G``, so one module issues the all-to-alls, the Ulysses
        method inherits USP's passes instead of defining its own, and the
        engine validates both through one branch."""
        import ast
        from pathlib import Path

        from repro.attention import METHOD_REGISTRY, USPMethod

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        assert not (src / "attention" / "ulysses.py").exists()
        callers = set()
        for path in sorted((src / "attention").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("all_to_all", "group_all_to_all")
                ):
                    callers.add(path.relative_to(src).as_posix())
        assert callers == {"attention/usp.py"}

        ulysses = METHOD_REGISTRY["ulysses"]
        assert issubclass(ulysses, USPMethod)
        assert not {"forward_shards", "backward_shards", "gather_lse"} & set(
            vars(ulysses))

        engine = ast.parse((src / "engine" / "engine.py").read_text())
        assert [
            node.lineno for node in ast.walk(engine)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ast.Eq) for op in node.ops)
            and any(
                isinstance(c, ast.Constant) and c.value == "ulysses"
                for c in (node.left, *node.comparators)
            )
        ] == []

    def test_the_kept_context_arrays_are_written_once(self):
        """What a node keeping a Ulysses / USP context saves is named
        once: the head-layout (``*_h``) fields of ``USPContext``, as
        ``usp.CONTEXT_ARRAYS``.  No head-layout output is among them, no
        other module spells the names out, and the engine's node and the
        test oracle chain both read the one tuple."""
        import ast
        from pathlib import Path

        from repro.attention.usp import CONTEXT_ARRAYS

        assert CONTEXT_ARRAYS == ("q_h", "k_h", "v_h", "lse_h")
        root = Path(__file__).resolve().parents[1]
        spelled, readers = set(), set()
        for path in sorted([*(root / "src").rglob("*.py"),
                            *(root / "tests").rglob("*.py")]):
            if path == Path(__file__).resolve():
                continue
            name = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(
                    isinstance(e, ast.Constant) and e.value in CONTEXT_ARRAYS
                    for e in node.elts
                ):
                    spelled.add(name)
                if (isinstance(node, ast.Name) and node.id == "CONTEXT_ARRAYS"
                        and isinstance(node.ctx, ast.Load)):
                    readers.add(name)
        assert spelled == set()
        assert readers == {
            "src/repro/engine/distributed_attention.py",
            "tests/attention_chain.py",
        }


class TestOneFaultStage:
    """One way to sabotage a collective: message faults and rank faults
    share one targeting base, ``testing.faults.FaultStage`` (the family's
    op set, the label filters, ``at_call``, the counters, ``describe``),
    and one factory, ``make_fault``.  Degraded pricing is the healthy
    pricing run on ``degraded_topology``, and the lease protocol's
    defaults are written once, in ``LeaseConfig``."""

    @staticmethod
    def _trees():
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        return [
            (path.relative_to(src).as_posix(), ast.parse(path.read_text()))
            for path in sorted(src.rglob("*.py"))
        ]

    def _scopes_of(self, match):
        return sorted(
            (rel, scope) for rel, tree in self._trees()
            for scope in _scopes(tree, match)
        )

    @staticmethod
    def _defines(*names):
        return lambda n: isinstance(n, ast.FunctionDef) and n.name in names

    def test_only_the_base_targets_and_counts(self):
        from repro.testing.faults import (
            FAULT_REGISTRY, RANK_FAULT_REGISTRY, FaultStage,
        )

        base = [("testing/faults.py", "FaultStage")]
        assert self._scopes_of(self._defines("_triggered", "matches")) == base
        counters = {"calls_matched", "injections"}
        writes = self._scopes_of(
            lambda n: isinstance(n, ast.Attribute) and n.attr in counters
            and isinstance(n.ctx, ast.Store)
        )
        assert {rel_scope[0] for rel_scope in writes} == {"testing/faults.py"}
        assert {scope for _, scope in writes} == {
            "FaultStage.__init__", "FaultStage._triggered",
        }
        for cls in {**FAULT_REGISTRY, **RANK_FAULT_REGISTRY}.values():
            assert issubclass(cls, FaultStage)
            # a family hooks in through ``_strike``; no class but the base
            # runs a fault stage
            assert cls._stage is FaultStage._stage

    def test_comm_keeps_no_targeting_helper(self):
        from repro.comm.communicator import CollectiveCall

        assert not hasattr(CollectiveCall, "matches")
        names = {"check_op_filter"}
        assert [
            hit for hit in self._scopes_of(
                lambda n: isinstance(n, ast.FunctionDef) and n.name in names
                or isinstance(n, ast.Name) and n.id in names
            )
            if hit[0] != "testing/faults.py"
        ] == []

    def test_one_factory_and_no_degraded_wrappers(self):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        assert not (src / "resilience" / "rank_faults.py").exists()
        assert self._scopes_of(self._defines("make_fault")) == [
            ("testing/faults.py", ""),
        ]
        gone = ("make_rank_fault", "rank_failure_downtime", "replan_partition")
        assert self._scopes_of(self._defines(*gone)) == []
        degraded = sorted(
            (rel, node.name) for rel, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("degraded_")
        )
        assert degraded == [("perf/cost.py", "degraded_topology")]

    def test_the_detector_reads_the_lease_not_a_copy(self):
        from dataclasses import fields

        from repro.comm import LeaseConfig

        lease = {f.name: f.default for f in fields(LeaseConfig)}
        # no function takes a lease field as a parameter of its own
        assert self._scopes_of(
            lambda n: isinstance(n, ast.arg) and n.arg in lease
        ) == []
        assert self._scopes_of(self._defines("failure_detection_time")) == [
            ("comm/failure.py", "LeaseConfig"),
        ]
        (tree,) = [t for rel, t in self._trees() if rel == "comm/failure.py"]
        (detector,) = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef) and n.name == "FailureDetector"
        ]
        literals = {
            n.value for n in ast.walk(detector)
            if isinstance(n, ast.Constant) and type(n.value) in (int, float)
        }
        assert not literals & set(lease.values())
        reads = {
            n.attr for n in ast.walk(detector)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
            and n.value.attr == "lease"
        }
        assert "failure_detection_time" in reads


class TestOnePassDescription:
    """One pass description for all five methods: ``attention_pass_sim``
    alone builds a pass graph — Ulysses and USP included, on the
    executor's grid — ``attention_pass_time`` is its makespan, no
    hand-written head-parallel pricer remains, one relayout function runs
    every all-to-all of a declared relayout layout, and USP's default
    degree is written once."""

    HOME = "perf/schedules/attention.py"

    @staticmethod
    def _trees():
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        return {
            path.relative_to(src).as_posix(): ast.parse(path.read_text())
            for path in sorted(src.rglob("*.py"))
        }

    @staticmethod
    def _calls(*names):
        return lambda n: (
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in names
        )

    def test_only_the_sim_builds_a_pass_graph(self):
        home = self._trees()[self.HOME]
        builders = set(_scopes(home, self._calls("Simulator", "_pipelined_ring")))
        assert builders == {"attention_pass_sim"}

    def test_the_pass_time_is_the_graphs_makespan(self):
        home = self._trees()[self.HOME]
        (fn,) = [
            n for n in home.body
            if isinstance(n, ast.FunctionDef) and n.name == "attention_pass_time"
        ]
        called = {
            n.func.id for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert called == {"attention_pass_sim"}

    def test_no_hand_written_head_parallel_pricer(self):
        """... nor relayout sizing or a relayout per direction."""
        gone = {"_ulysses_pass", "_usp_pass", "head_parallel_relayout_bytes",
                "_seq_to_head", "_head_to_seq"}
        assert [
            (rel, node.lineno) for rel, tree in self._trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in gone
            or isinstance(node, ast.Name) and node.id in gone
        ] == []

    def test_one_relayout_function_runs_the_all_to_alls(self):
        callers = {
            (rel, scope) for rel, tree in self._trees().items()
            for scope in _scopes(
                tree,
                lambda n: isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "group_all_to_all",
            )
        }
        assert callers == {("attention/usp.py", "_relayout")}

    def test_the_relayout_tags_are_declared_once(self):
        """Each relayout's tag is written in its layout alone; the
        executor and the pricer take it from there."""
        tags = {"usp-qkv", "usp-out", "usp-dout", "usp-grads"}
        found = [
            (rel, node.value) for rel, tree in self._trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in tags
        ]
        assert sorted(found) == [("comm/ring.py", tag) for tag in sorted(tags)]

    def test_the_default_degree_is_written_once(self):
        trees = self._trees()
        defines = [
            (rel, scope) for rel, tree in trees.items()
            for scope in _scopes(
                tree,
                lambda n: isinstance(n, ast.FunctionDef)
                and n.name == "default_ulysses_degree",
            )
        ]
        # beside the grid it picks, and read by the pricer, the dense
        # check and the engine alike (the engine fills a USP config's
        # missing degree, so none of its callers does)
        assert defines == [("attention/usp.py", "")]
        callers = {
            (rel, scope) for rel, tree in trees.items()
            for scope in _scopes(tree, self._calls("default_ulysses_degree"))
        }
        assert callers == {(self.HOME, "_pass_row"),
                           ("attention/verify.py", "verify_method"),
                           ("engine/engine.py", "BurstEngine.__init__")}


class TestOneLinkRule:
    """One hop, one link class: every hop — a transition, the return hop,
    the reverse seed — is classed by one slowest-pair rule in
    ``comm/ring.py``, which the executor traces by and the DES prices by;
    no convention of the DES's own survives, no attribution check skips
    a hop's row, and ``obs diff`` counts the DES's own hops instead of
    walking the ring table a second time."""

    _trees = staticmethod(TestOnePassDescription._trees)

    def test_only_the_ring_schedule_takes_a_slowest_link(self):
        def where(match):
            return {
                (rel, scope) for rel, tree in self._trees().items()
                for scope in _scopes(tree, match)
            }

        # a function that classes rank pairs and ranks the classes
        classes_pairs = where(
            lambda n: isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "link_class"
        )
        ranks_classes = where(
            lambda n: isinstance(n, ast.Attribute)
            and n.attr in ("INTER", "INTRA")
            and isinstance(n.value, ast.Name) and n.value.id == "LinkClass"
        )
        assert classes_pairs & ranks_classes == {
            ("comm/ring.py", "RingSchedule._slowest_link")
        }

    def test_no_mixed_hop_convention_or_skip(self):
        found = [
            (rel, node.lineno) for rel, tree in self._trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "_mixed_link_class"
            or isinstance(node, ast.Name) and node.id == "_mixed_link_class"
            or isinstance(node, ast.arg) and node.arg == "mixed"
        ]
        assert found == []

    def test_the_diff_counts_the_des_hops(self):
        report = self._trees()["obs/report.py"]
        walked = {"RING_METHODS", "bidirectional_split"}
        assert [
            node.lineno for node in ast.walk(report)
            if isinstance(node, ast.ImportFrom)
            and walked & {a.name for a in node.names}
            or isinstance(node, ast.Name) and node.id in walked
            or isinstance(node, ast.Attribute) and node.attr in walked
        ] == []
        imports = {
            a.name for node in ast.walk(report)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.perf.schedules.attention"
            for a in node.names
        }
        assert "attention_pass_hops" in imports


class TestOneMemoryLedger:
    """One memory ledger: the saved and transient series are two instances
    of ``obs/mem.py``'s ``Ledger`` — one handle counter, one live-handle
    dict, one release rule — and every timeline analysis (peak
    attribution, the leak report, the validator's running sum, the
    memdiff site peak) reads the one ``replay`` walk of a timeline."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def _where(self, match):
        return {
            (path.relative_to(self.SRC).as_posix(), scope)
            for path in sorted(self.SRC.rglob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), match)
        }

    @staticmethod
    def _named(node, *words):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else "")
        return any(w in name.lower() for w in words)

    def test_one_handle_counter(self):
        """Handles are issued by one counter: ``Ledger.register``."""
        counts = self._where(
            lambda n: isinstance(n, ast.AugAssign)
            and isinstance(n.op, ast.Add)
            and self._named(n.target, "next", "handle")
        )
        assert counts == {("obs/mem.py", "Ledger.register")}

    def test_one_live_handle_dict(self):
        """Only the ledger and the replay key a dict by handle."""
        keyed = self._where(
            lambda n: isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Subscript)
                and self._named(t.slice, "handle")
                for t in n.targets
            )
        )
        assert keyed == {("obs/mem.py", "Ledger.register"),
                         ("obs/mem.py", "replay")}

    def test_one_walk_of_alloc_and_free_events(self):
        """A loop that branches on an event's kind or keeps a running sum
        of its deltas is the replay (the peak table's per-group byte
        cells sum the live set the replay hands over)."""

        def reads_event(n):
            if isinstance(n, ast.Compare):
                return isinstance(n.ops[0], (ast.Eq, ast.NotEq)) and any(
                    isinstance(c, ast.Constant) and c.value in ("alloc", "free")
                    for c in (n.left, *n.comparators)
                )
            added = (
                (n.left, n.right) if isinstance(n, ast.BinOp)
                else (n.value,) if isinstance(n, ast.AugAssign)
                and isinstance(n.target, ast.Name) else ()
            )
            return isinstance(getattr(n, "op", None), ast.Add) and any(
                self._named(a, "delta")
                or isinstance(a, ast.Subscript)
                and isinstance(a.slice, ast.Constant) and a.slice.value == "delta"
                for a in added
            )

        walks = self._where(
            lambda n: isinstance(n, (ast.For, ast.comprehension))
            and any(reads_event(c) for c in ast.walk(n))
        )
        assert walks == {("obs/mem.py", "replay")}

    def test_the_two_series_are_ledgers(self):
        from repro.nn.memory import MemoryTracker, get_tracker
        from repro.obs import mem

        assert issubclass(MemoryTracker, mem.Ledger)
        assert get_tracker().series == mem.SAVED
        assert mem.transient_alloc.__self__.series == mem.TRANSIENT
        assert mem.transient_free.__self__ is mem.transient_alloc.__self__
        assert mem.reset_transients.__self__ is mem.transient_alloc.__self__


class TestOneArtifactChecker:
    """One artifact checker: ``ARTIFACT_SCHEMAS`` declares every artifact's
    shape and ``check_artifact`` holds a payload to it — no hand-written
    ``validate_*`` walk or ``load_artifact`` preamble is left under
    ``repro.obs``, and every schema tag is spelled in the table's module
    alone (its writers import it)."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_no_validator_or_preamble_is_defined(self):
        defined = {
            (path.relative_to(self.SRC).as_posix(), name)
            for path in sorted((self.SRC / "obs").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            for name in (
                [node.name] if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                else [t.id for t in node.targets if isinstance(t, ast.Name)]
                if isinstance(node, ast.Assign) else []
            )
            if name.startswith("validate_") or name == "load_artifact"
        }
        assert defined == set()

    def test_every_schema_tag_is_spelled_in_the_table_module(self):
        from repro.obs.export import ARTIFACT_SCHEMAS, check_artifact

        home = check_artifact.__module__.replace(".", "/") + ".py"
        tag = re.compile(r"[\w.-]+/v\d+")
        spelled = {
            (path.relative_to(self.SRC.parent).as_posix(), node.value)
            for path in sorted(self.SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and tag.fullmatch(node.value)
        }
        assert spelled, "no schema tag found"
        assert {where for where, _ in spelled} == {home}
        tagged = {k for k, s in ARTIFACT_SCHEMAS.items() if s.tagged}
        assert {value for _, value in spelled} == tagged

    def test_the_package_exports_the_checker_alone(self):
        import repro.obs

        assert "check_artifact" in repro.obs.__all__
        assert [n for n in repro.obs.__all__ if n.startswith("validate_")] == []


class TestOneRunDescription:
    """One run description: the A800 pricing models read the
    ``EngineConfig`` the engine runs.  The paper's models are
    ``TransformerConfig`` values (no ``ModelSpec``), a ``TrainingSetup`` is
    that config on a topology at a sequence length plus the four inputs
    only pricing has, ``EndToEndModel`` prices a setup it is handed, and
    no pricing dataclass restates the checkpoint policy or the head.  The
    topology is the run's only GPU count: no ``EngineConfig`` field,
    ``make_cluster`` node width or ``verify_method`` world restates it."""

    ROOT = Path(__file__).resolve().parents[1]

    _trees = staticmethod(TestOnePassDescription._trees)

    def _perf(self):
        return {
            rel: tree for rel, tree in self._trees().items()
            if rel.startswith("perf/")
        }

    def test_model_spec_is_defined_nowhere(self):
        assert [
            (rel, node.lineno) for rel, tree in self._trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "ModelSpec"
            or isinstance(node, ast.Name) and node.id == "ModelSpec"
            or isinstance(node, ast.alias) and node.name == "ModelSpec"
        ] == []

    def test_no_pricing_dataclass_restates_the_policy_or_the_head(self):
        def restated(stmt):
            if not isinstance(stmt, ast.AnnAssign):
                return False
            name = getattr(stmt.target, "id", None)
            if name in ("head_mode", "split_fraction"):
                return True
            return name == "checkpoint" and ast.unparse(stmt.annotation) == "str"

        assert [
            (rel, cls.name, stmt.target.id)
            for rel, tree in self._perf().items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if restated(stmt)
        ] == []

    def test_one_policy_parse_under_perf(self):
        """The step benchmark's worker hands ``predict_step_peak_saved_bytes``
        policy strings; nothing else under ``perf/`` parses one."""
        parses = [
            (rel, scope) for rel, tree in self._perf().items()
            for scope in _scopes(
                tree,
                lambda n: isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == "parse"
                and getattr(n.func.value, "id", None) == "CheckpointPolicy",
            )
        ]
        assert parses == [("perf/memory.py", "predict_step_peak_saved_bytes")]

    def test_the_step_prices_the_setup_it_is_handed(self):
        from dataclasses import fields, is_dataclass

        from repro.perf import EndToEndModel, TrainingSetup

        builds = [
            (rel, scope) for rel, tree in self._perf().items()
            for scope in _scopes(
                tree,
                lambda n: isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "TrainingSetup",
            )
        ]
        assert builds == []
        assert not is_dataclass(EndToEndModel)
        assert [f.name for f in fields(TrainingSetup)] == [
            "config", "topology", "seq_len", "zero_stage",
            "optimizer_offload", "sparsity", "workload_balanced",
        ]

    def _defined(self, rel, kind, name):
        (node,) = [
            n for n in ast.walk(self._trees()[rel])
            if isinstance(n, kind) and n.name == name
        ]
        return node

    def test_the_engine_config_carries_no_gpu_count(self):
        cls = self._defined("engine/engine.py", ast.ClassDef, "EngineConfig")
        assert [
            stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
        ] == ["model", "method", "method_kwargs", "checkpoint", "head_impl",
              "fsdp", "lr"]

    def test_no_function_takes_a_gpu_count_beside_the_topology(self):
        def params(rel, name):
            fn = self._defined(rel, ast.FunctionDef, name)
            return [a.arg for a in fn.args.args + fn.args.kwonlyargs]

        # the node spec is the one way to give a node width
        assert params("topology/cluster.py", "make_cluster") == ["num_gpus", "node"]
        verify = params("attention/verify.py", "verify_method")
        assert "topology" in verify
        assert not {"num_gpus", "gpus_per_node"} & set(verify)

    def test_no_engine_config_is_handed_a_gpu_count(self):
        def called(node):
            return isinstance(node, ast.Call) and "EngineConfig" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))

        assert [
            (path.relative_to(self.ROOT).as_posix(), node.lineno)
            for top in ("src", "examples", "benchmarks")
            for path in sorted((self.ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if called(node)
            for kw in node.keywords if kw.arg in ("num_gpus", "gpus_per_node")
        ] == []


class TestOnePaperClaimsTable:
    """The paper's claims as one table: ``CLAIMS`` is the one place a paper
    value or a bound on an experiment's cells is written, every experiment
    has a row, ``python -m repro.experiments <id>`` is the one way to
    regenerate a figure (no pytest-benchmark wrapper restates it), and no
    note spells a paper value the table holds."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_no_figure_wrapper_or_record_table(self):
        wrappers = [
            path.name for pattern in ("bench_fig*", "bench_tab*", "bench_ext_*")
            for path in (self.ROOT / "benchmarks").rglob(pattern + ".py")
        ]
        named = [
            (path.relative_to(self.ROOT).as_posix(), node.lineno)
            for top in ("src", "tests", "benchmarks", "examples")
            for path in sorted((self.ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if "record_table" in (getattr(node, "id", None), getattr(node, "name", None),
                                  getattr(node, "arg", None))
        ]
        assert (wrappers, named) == ([], [])

    def test_every_experiment_has_a_row(self):
        from repro.experiments import ALL_EXPERIMENTS, CLAIMS

        assert len(ALL_EXPERIMENTS) == 16
        assert set(ALL_EXPERIMENTS) == {claim.exp for claim in CLAIMS}
        assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
        assert all(c.deviation is None or c.deviation.startswith(
            ("attributed: ", "not explained: ")) for c in CLAIMS)

    def test_no_note_spells_a_paper_value(self):
        from repro.experiments import CLAIMS

        values = {
            repr(v) for claim in CLAIMS if claim.paper is not None
            for v in (claim.paper if isinstance(claim.paper, tuple) else (claim.paper,))
            if v is not None
        }
        spelled = [
            (path.name, node.lineno, value)
            for path in sorted((self.ROOT / "src/repro/experiments").glob("*.py"))
            for call in ast.walk(ast.parse(path.read_text()))
            if isinstance(call, ast.Call)
            for kw in call.keywords if kw.arg == "notes"
            for node in ast.walk(kw.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for value in values if value in node.value
        ]
        assert values and spelled == []
