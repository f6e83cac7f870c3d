"""Public-API smoke tests: top-level exports, README snippets, and the
remaining accessor edges."""

import ast

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
        from repro.models import LLAMA_14B
        from repro.perf import end_to_end_step
        from repro.topology import make_cluster

        r = end_to_end_step(LLAMA_14B, make_cluster(32), 1 << 20,
                            method="burst", checkpoint="sequence_level",
                            head_mode="fused")
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
        expected = fsdp_step_traffic(engine.param_bytes, 4, gather_passes=2)
        assert res.fsdp.allgather_bytes == expected.allgather_bytes
        assert res.fsdp.reduce_scatter_bytes == expected.reduce_scatter_bytes

    def test_model_spec_ffn_sizing(self):
        from repro.models import LLAMA_7B, ModelSpec

        assert LLAMA_7B.ffn == 11008  # LLaMA-1 7B's actual FFN width
        explicit = ModelSpec(name="x", n_layers=1, n_heads=2, hidden=64,
                             vocab=10, ffn_hidden=123)
        assert explicit.ffn == 123

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
                                f.attr in ("apply_reverse", "return_permutation")
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


class TestOnlyTheBlockElidesItsTail:
    """A checkpoint replay skips the fused FFN's forward because *the
    block* knows the FFN is the tail of its own checkpointed region.  The
    node and its kernels must stay blind to the replay state — a node-level
    shortcut is silently wrong wherever another node saves the FFN's
    output (``tests/test_blockwise_mlp.py`` holds that case)."""

    def test_in_recompute_is_read_by_the_block_and_the_attention_cache(self):
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        # its definition, and the attention-output cache that consults it
        homes = ("nn/checkpoint.py", "nn/attention_fn.py")
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            text = path.read_text()
            if rel in homes:
                continue
            if rel != "nn/modules.py":
                # no import, no reference, not even by name: in particular
                # nn/mlp_fn.py and kernels/mlp.py
                assert "in_recompute" not in text, rel
                continue
            tree = ast.parse(text)
            (block,) = [
                node for node in tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "TransformerBlock"
            ]
            in_block = {id(node) for node in ast.walk(block)}
            reads = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "in_recompute"
            ]
            assert len(reads) == 1
            assert id(reads[0]) in in_block

    def test_one_condition_picks_the_ffn_node(self):
        """What a replayed FFN saves is decided by one condition in
        ``SwiGLU.forward``: it alone builds the fused node and reads
        ``output_unread``."""
        from pathlib import Path

        def builds_node(n):
            return isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == "blockwise_mlp"
                or isinstance(n.func, ast.Attribute)
                and n.func.attr == "apply"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "BlockwiseMLPFn"
            )

        def reads_flag(n):
            return (isinstance(n, ast.Name) and n.id == "output_unread"
                    and isinstance(n.ctx, ast.Load))

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        found = {"builds": set(), "reads": set()}
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            tree = ast.parse(path.read_text())
            found["builds"].update((rel, s) for s in _scopes(tree, builds_node))
            found["reads"].update((rel, s) for s in _scopes(tree, reads_flag))
        assert found == {
            "builds": {("nn/modules.py", "SwiGLU.forward"),
                       ("nn/mlp_fn.py", "blockwise_mlp")},
            "reads": {("nn/modules.py", "SwiGLU.forward")},
        }


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
        """``CausalSelfAttention.forward`` is the one project → heads →
        RoPE → attend → merge → ``wo``; a subclass overrides no
        ``forward``, only ``_attend`` (and its own ``__init__``)."""
        methods = {
            (rel, node.name, item.name)
            for rel, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                (base.id if isinstance(base, ast.Name)
                 else getattr(base, "attr", None)) in self.LAYERS
                for base in node.bases
            )
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name != "__init__"
        }
        assert methods == {
            ("engine/distributed_attention.py",
             "DistributedCausalSelfAttention", "_attend"),
        }

    def test_one_node_projects_q_k_and_v(self):
        """The q/k/v projections are built in one place, as one
        ``QKVProjectionFn`` node that saves the normed input once."""
        def calls(name):
            return lambda n: isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == name
                or isinstance(n.func, ast.Attribute) and n.func.attr == name
            )

        def applies_node(n):
            return (isinstance(n, ast.Attribute) and n.attr == "apply"
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "QKVProjectionFn")

        found = {"qkv_heads": set(), "apply": set()}
        for rel, tree in self._trees():
            found["qkv_heads"].update(
                (rel, s) for s in _scopes(tree, calls("qkv_heads")))
            found["apply"].update((rel, s) for s in _scopes(tree, applies_node))
        assert found == {
            "qkv_heads": {("nn/modules.py", "CausalSelfAttention.forward")},
            "apply": {("nn/ops.py", "qkv_heads")},
        }

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


class TestSavedActivationsRegisteredOnce:
    """A saved activation enters the memory tracker through the node that
    saves it — ``Function.save_for_backward``, released wherever the
    node's state is.  Besides it only the attention-output cache, the LM
    head's resident footprint and the memory gate's injected leak
    register; a second handle beside a node's is not released by
    ``Function.apply`` when the output needs no gradient."""

    def test_register_is_called_from_four_places(self):
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
            ("nn/checkpoint.py", "AttentionOutputCache.put"),
            ("nn/modules.py", "FusedLMHeadLossFn.forward"),
            ("obs/__main__.py", "_memdiff_inject"),
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
        assert not {"forward_shards", "backward_shards"} & set(vars(ulysses))

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
