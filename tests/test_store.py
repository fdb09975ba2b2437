"""Tests for the content-addressed on-disk artifact store.

Covers the store primitives (keys, mmap-able npz blobs, atomic
put/get, quarantine, LRU eviction), the :class:`repro.api.Network`
two-tier lookup (memory -> store -> build-and-persist), bit-identity
of rehydrated artifacts for every storable kind, concurrent writers,
store isolation (compiling and routing persists nothing outside
``Network.artifact``), the unified stats family, and the CLI surface
(``--cache-dir`` / ``--no-store`` / ``repro store ...`` / warm-start
``repro traffic``).
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api import Network
from repro.api.artifacts import (
    artifact_kinds,
    get_artifact_spec,
    storable_artifact_specs,
)
from repro.api.stats import SessionStats
from repro.cli import main
from repro.exceptions import ConstructionError, StoreError
from repro.graph.generators import random_strongly_connected
from repro.store import (
    ArtifactStore,
    StoreKey,
    default_store,
    format_bytes,
    graph_content_hash,
    parse_size,
    store_override,
)
from repro.store.npz import read_npz_mapped, write_npz
from table_storage import forced


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def graph():
    return random_strongly_connected(18, rng=random.Random(4))


def _key(tag: str = "a") -> StoreKey:
    return StoreKey("oracle", 1, {"graph": "g" + tag, "seed": 0})


def _arrays() -> dict:
    return {
        "d": np.arange(12, dtype=np.float64).reshape(3, 4),
        "idx": np.array([3, 1, 2], dtype=np.int32),
    }


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_digest_deterministic_and_order_free(self):
        a = StoreKey("oracle", 1, {"seed": 0, "graph": "x"})
        b = StoreKey("oracle", 1, {"graph": "x", "seed": 0})
        assert a.digest == b.digest
        assert len(a.digest) == 64

    def test_digest_separates_kind_version_params(self):
        base = StoreKey("oracle", 1, {"graph": "x"})
        assert base.digest != StoreKey("rtz", 1, {"graph": "x"}).digest
        assert base.digest != StoreKey("oracle", 2, {"graph": "x"}).digest
        assert base.digest != StoreKey("oracle", 1, {"graph": "y"}).digest

    def test_float_params_hash_exactly(self):
        a = StoreKey("cover", 1, {"scale": 0.1})
        b = StoreKey("cover", 1, {"scale": 0.1 + 2 ** -55})
        assert a.digest != b.digest

    def test_bad_kind_rejected(self):
        for kind in ("", "a/b", "a b", "a.b"):
            with pytest.raises(StoreError):
                StoreKey(kind, 1, {})

    def test_non_jsonable_value_rejected(self):
        with pytest.raises(StoreError):
            StoreKey("oracle", 1, {"rng": object()}).canonical_json()

    def test_graph_hash_requires_frozen(self):
        from repro.graph.digraph import Digraph

        g = Digraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        with pytest.raises(StoreError):
            graph_content_hash(g)
        frozen = g.freeze()
        h = graph_content_hash(frozen)
        assert h == graph_content_hash(frozen)  # cached, stable

    def test_graph_hash_content_addressed(self, graph):
        same = random_strongly_connected(18, rng=random.Random(4))
        other = random_strongly_connected(18, rng=random.Random(5))
        assert graph_content_hash(graph) == graph_content_hash(same)
        assert graph_content_hash(graph) != graph_content_hash(other)


# ----------------------------------------------------------------------
# npz blobs
# ----------------------------------------------------------------------
class TestNpz:
    def test_roundtrip_mapped_bit_identical(self, tmp_path):
        path = str(tmp_path / "blob.npz")
        arrays = _arrays()
        write_npz(path, arrays)
        loaded = read_npz_mapped(path)
        assert set(loaded) == set(arrays)
        for name, ref in arrays.items():
            assert loaded[name].dtype == ref.dtype
            assert loaded[name].shape == ref.shape
            assert np.array_equal(loaded[name], ref)

    def test_mapped_arrays_are_read_only_memmaps(self, tmp_path):
        path = str(tmp_path / "blob.npz")
        write_npz(path, _arrays())
        loaded = read_npz_mapped(path)
        assert isinstance(loaded["d"], np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            loaded["d"][0, 0] = 99.0

    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            write_npz(
                str(tmp_path / "bad.npz"),
                {"o": np.array([object()], dtype=object)},
            )


# ----------------------------------------------------------------------
# store put/get/quarantine/gc
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_roundtrip(self, store):
        key = _key()
        store.put(key, _arrays(), meta={"engine": "vectorized"},
                  build_seconds=0.25)
        entry = store.get(key)
        assert entry is not None
        assert np.array_equal(entry.arrays["d"], _arrays()["d"])
        assert entry.meta == {"engine": "vectorized"}
        assert entry.manifest["build_seconds"] == 0.25
        assert entry.manifest["schema"] == "repro-store/1"
        assert store.hits == 1 and store.puts == 1

    def test_miss_on_absent(self, store):
        assert store.get(_key("zzz")) is None
        assert store.misses == 1

    def test_truncated_blob_quarantined(self, store):
        key = _key()
        blob = store.put(key, _arrays())
        blob.write_bytes(blob.read_bytes()[:-7])
        assert store.get(key) is None
        assert store.quarantined == 1
        assert list(store.entries()) == []
        qdir = store.root / "quarantine"
        assert any(qdir.iterdir())
        # rebuild path: a fresh put works and reads back clean
        store.put(key, _arrays())
        assert store.get(key) is not None

    def test_bad_manifest_json_quarantined(self, store):
        key = _key()
        store.put(key, _arrays())
        manifest = store.root / key.kind / f"{key.digest}.json"
        manifest.write_text("{not json")
        assert store.get(key) is None
        assert store.quarantined == 1

    def test_orphan_blob_quarantined(self, store):
        key = _key()
        store.put(key, _arrays())
        (store.root / key.kind / f"{key.digest}.json").unlink()
        assert store.get(key) is None
        assert store.quarantined == 1

    def test_explicit_quarantine(self, store):
        key = _key()
        store.put(key, _arrays())
        store.quarantine(key)
        assert store.get(key) is None
        assert store.quarantined == 1

    def test_verify_detects_corruption(self, store):
        good, bad = _key("good"), _key("bad")
        store.put(good, _arrays())
        blob = store.put(bad, _arrays())
        blob.write_bytes(b"garbage")
        ok, corrupt = store.verify()
        assert ok == 1
        assert [e.digest for e in corrupt] == [bad.digest]
        assert store.get(good) is not None

    def test_gc_respects_size_bound_lru(self, store):
        import os

        keys = [_key(str(i)) for i in range(4)]
        for i, key in enumerate(keys):
            blob = store.put(key, _arrays())
            manifest = blob.with_suffix(".json")
            os.utime(blob, (1000.0 + i, 1000.0 + i))
            os.utime(manifest, (1000.0 + i, 1000.0 + i))
        # manifest sizes vary by a few bytes (timestamps), so size the
        # bound to exactly the two most recent entries
        sizes = {e.digest: e.nbytes for e in store.entries()}
        bound = sizes[keys[2].digest] + sizes[keys[3].digest]
        evicted = store.gc(max_bytes=bound)
        assert evicted == 2
        assert store.total_bytes() <= bound
        # the oldest two went; the recent two survive
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None

    def test_auto_gc_after_put(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        probe.put(_key(), _arrays())
        # Fits exactly one entry.  Manifest sizes jitter by a few bytes
        # between writes (float repr lengths of the embedded `created`
        # timestamp), so give headroom well short of a second entry.
        bound = probe.total_bytes() + 64
        store = ArtifactStore(tmp_path / "bounded", max_bytes=bound)
        for i in range(3):
            store.put(_key(str(i)), _arrays())
        assert len(list(store.entries())) == 1
        assert store.evictions == 2

    def test_clear_removes_everything(self, store):
        store.put(_key("a"), _arrays())
        store.put(_key("b"), _arrays())
        assert store.clear() >= 4  # 2 blobs + 2 manifests
        assert list(store.entries()) == []
        assert store.total_bytes() == 0

    def test_negative_max_bytes_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ArtifactStore(tmp_path / "s", max_bytes=-1)

    def test_concurrent_writers_one_key(self, store):
        key = _key()
        arrays = _arrays()
        errors = []

        def write():
            try:
                for _ in range(10):
                    store.put(key, arrays)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        entry = store.get(key)
        assert entry is not None
        assert np.array_equal(entry.arrays["d"], arrays["d"])
        assert len(list(store.entries())) == 1
        # no temp litter left behind
        assert not list(store.root.rglob("*.tmp.*"))

    def test_stats_protocol(self, store):
        store.put(_key(), _arrays())
        store.get(_key())
        store.get(_key("miss"))
        s = store.stats()
        doc = s.as_dict()
        assert doc["entries"] == 1
        assert doc["gets"] == 2 and doc["hits"] == 1 and doc["misses"] == 1
        assert "store (" in s.format()


# ----------------------------------------------------------------------
# size helpers / env config
# ----------------------------------------------------------------------
class TestConfig:
    def test_parse_size(self):
        assert parse_size("512") == 512
        assert parse_size("4K") == 4096
        assert parse_size("1.5GiB") == int(1.5 * (1 << 30))
        assert parse_size("2 MB") == 2 << 20
        with pytest.raises(StoreError):
            parse_size("lots")

    def test_format_bytes(self):
        assert format_bytes(100) == "100 B"
        assert format_bytes(1536) == "1.5 KiB"

    def test_env_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        assert default_store() is None

    def test_env_configures_root_and_bound(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "64K")
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "cache"
        assert store.max_bytes == 64 << 10
        # one instance per configuration: counters aggregate
        assert default_store() is store

    def test_store_override_scopes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", "off")
        pinned = ArtifactStore(tmp_path / "pinned")
        with store_override(pinned):
            assert default_store() is pinned
            with store_override(None):
                assert default_store() is None
            assert default_store() is pinned
        assert default_store() is None


# ----------------------------------------------------------------------
# the Network two-tier lookup
# ----------------------------------------------------------------------
class TestNetworkStoreTier:
    def test_cold_then_warm_counters(self, graph, store):
        cold = Network(graph, seed=3, store=store)
        cold.oracle()
        assert cold.stats().cache.as_dict()["oracle"]["builds"] == 1
        assert store.puts >= 1

        warm = Network(graph, seed=3, store=store)
        warm.oracle()
        info = warm.stats().cache.as_dict()["oracle"]
        assert info["builds"] == 0
        assert info["store_hits"] == 1
        warm.oracle()
        assert warm.stats().cache.as_dict()["oracle"]["hits"] == 1

    def test_store_none_disables_persistence(self, graph, tmp_path):
        net = Network(graph, seed=3, store=None)
        net.oracle()
        assert net.resolved_store() is None

    def test_auto_mode_follows_override(self, graph, store):
        net = Network(graph, seed=3)  # store="auto"
        with store_override(store):
            assert net.resolved_store() is store
            net.oracle()
        assert store.puts >= 1

    def test_invalid_store_argument(self, graph):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            Network(graph, store="yes-please")

    def test_undeserializable_entry_quarantined_and_rebuilt(
        self, graph, store
    ):
        Network(graph, seed=3, store=store).oracle()
        spec = get_artifact_spec("oracle")
        key = spec.store_key(Network(graph, seed=3, store=store), {})
        # valid checksum, wrong schema shape: drop an array the loader
        # needs and re-checksum so get() succeeds but load() fails
        entry = store.get(key)
        arrays = {"d": np.asarray(entry.arrays["d"])}  # no "parent"
        store.put(key, arrays)
        net = Network(graph, seed=3, store=store)
        oracle = net.oracle()
        assert net.stats().cache.as_dict()["oracle"]["builds"] == 1
        assert store.quarantined == 1
        assert oracle.d_matrix.shape == (graph.n, graph.n)

    @pytest.mark.parametrize("corrupt", ["in_succ", "direct_port"])
    def test_inconsistent_rtz_entry_quarantined_and_rebuilt(
        self, graph, store, corrupt
    ):
        n = graph.n
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        cold = Network(graph, seed=3, store=None).router("rtz")
        want = [(r.cost, r.hops, r.trace.outbound.path, r.trace.inbound.path)
                for r in cold.route_many(pairs)]
        Network(graph, seed=3, store=store).rtz()
        net = Network(graph, seed=3, store=store)
        spec = get_artifact_spec("rtz")
        key = spec.store_key(net, spec.validate_params({}))
        entry = store.get(key)
        # valid checksum, inconsistent with the graph: re-put the entry
        # with one table entry no edge or port backs
        arrays = {k: np.array(v) for k, v in entry.arrays.items()}
        if corrupt == "in_succ":
            centers = set(arrays["centers"].tolist())
            v = next(x for x in range(n) if x not in centers)
            arrays["in_succ"][0, v] = next(
                x for x in range(n) if x != v and not graph.has_edge(v, x)
            )
        else:
            u = int(arrays["direct_u"][0])
            arrays["direct_port"][0] = max(graph.ports(u)) + 1
        store.put(key, arrays, meta=entry.manifest["meta"])
        got = [(r.cost, r.hops, r.trace.outbound.path, r.trace.inbound.path)
               for r in net.router("rtz").route_many(pairs)]
        counters = net.stats().cache.as_dict()["rtz"]
        assert store.quarantined == 1
        assert (counters["builds"], counters["store_hits"]) == (1, 0)
        assert got == want

    def test_seed_enters_keys_except_oracle(self, graph, store):
        a = Network(graph, seed=1, store=store)
        b = Network(graph, seed=2, store=store)
        spec_oracle = get_artifact_spec("oracle")
        spec_rtz = get_artifact_spec("rtz")
        assert (
            spec_oracle.store_key(a, {}).digest
            == spec_oracle.store_key(b, {}).digest
        )
        resolved = spec_rtz.validate_params({})
        assert (
            spec_rtz.store_key(a, resolved).digest
            != spec_rtz.store_key(b, resolved).digest
        )

    def test_warm_boot_never_imports_scipy(self, tmp_path):
        # scipy only accelerates the APSP warm start: importing the CLI,
        # and a network whose oracle and substrate load from the store,
        # run none and must not import it.
        root = tmp_path / "store"
        Network.from_family("random", 40, seed=1, store=ArtifactStore(root)) \
            .router("stretch6").resolve_engine()
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys\n"
            "import repro.cli\n"
            "assert 'scipy' not in sys.modules, 'import repro.cli'\n"
            "from repro.api import Network\n"
            "from repro.store import ArtifactStore\n"
            f"net = Network.from_family('random', 40, seed=1, "
            f"store=ArtifactStore({str(root)!r}))\n"
            "net.router('stretch6').resolve_engine()\n"
            "rows = net.stats().cache.as_dict()\n"
            "assert rows['oracle']['store_hits'] == 1, rows['oracle']\n"
            "assert rows['rtz']['store_hits'] == 1, rows['rtz']\n"
            "assert 'scipy' not in sys.modules, 'warm boot'\n"
            "print('ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_version_bump_misses_cleanly(self, graph, store):
        import dataclasses

        net = Network(graph, seed=3, store=store)
        net.oracle()
        spec = get_artifact_spec("oracle")
        bumped = dataclasses.replace(spec, version=spec.version + 1)
        assert store.get(bumped.store_key(net, {})) is None


# ----------------------------------------------------------------------
# bit-identity of rehydration, for every storable kind
# ----------------------------------------------------------------------
class TestRehydrationBitIdentity:
    def test_every_storable_kind_roundtrips(self, graph, store):
        specs = storable_artifact_specs()
        assert {s.kind for s in specs} >= {"oracle", "rtz"}
        fresh = Network(graph, seed=5, store=None)
        warmer = Network(graph, seed=5, store=store)
        for spec in specs:
            warmer.artifact(spec.kind)  # build + persist
        rehydrated = Network(graph, seed=5, store=store)
        for spec in specs:
            resolved = spec.validate_params({})
            label = spec.cache_label(resolved)
            value = rehydrated.artifact(spec.kind)
            assert rehydrated.stats().cache.as_dict()[label]["store_hits"] == 1, spec.kind
            ref_arrays, ref_meta = spec.dump(fresh.artifact(spec.kind))
            got_arrays, got_meta = spec.dump(value)
            assert set(got_arrays) == set(ref_arrays), spec.kind
            for name in ref_arrays:
                assert np.array_equal(
                    np.asarray(got_arrays[name]), np.asarray(ref_arrays[name])
                ), f"{spec.kind}/{name}"
            assert got_meta == ref_meta

    def test_rehydrated_oracle_routes_identically(self, graph, store):
        Network(graph, seed=5, store=store).build_scheme("stretch6")
        warm = Network(graph, seed=5, store=store)
        cold = Network(graph, seed=5, store=None)
        pairs = [(s, t) for s in range(graph.n)
                 for t in range(0, graph.n, 5) if s != t]
        wr = warm.router("stretch6").route_many(pairs)
        cr = cold.router("stretch6").route_many(pairs)
        for a, b in zip(wr, cr):
            assert (a.cost, a.hops, a.dest_name) == (b.cost, b.hops,
                                                     b.dest_name)

    def test_rehydrated_rtz_traffic_summary_identical(self, graph, store):
        from repro.runtime.traffic import generate_workload, run_workload

        Network(graph, seed=5, store=store).build_scheme("rtz")
        warm = Network(graph, seed=5, store=store)
        cold = Network(graph, seed=5, store=None)
        wl = generate_workload(
            "mixed", graph.n, 60, rng=random.Random(9),
            oracle=cold.oracle(),
        )
        a = run_workload(warm.build_scheme("rtz"), wl, oracle=warm.oracle())
        b = run_workload(cold.build_scheme("rtz"), wl, oracle=cold.oracle())
        assert warm.stats().cache.as_dict()["rtz"]["store_hits"] == 1
        assert (a.total_cost, a.total_hops) == (b.total_cost, b.total_hops)
        assert (a.max_stretch, a.worst_pair) == (b.max_stretch, b.worst_pair)


# ----------------------------------------------------------------------
# store isolation: only Network.artifact touches a store
# ----------------------------------------------------------------------
#: every registered scheme that compiles decision tables
COMPILED_SCHEMES = (
    "shortest_path", "rtz", "stretch6", "stretch6_via_source", "wild_names",
)


class TestStoreIsolation:
    def test_compiled_schemes_persist_only_through_network(
        self, graph, tmp_path, monkeypatch
    ):
        """Compiling and routing writes nothing to the environment's
        store, and only the ``oracle`` and ``rtz`` artifacts to the
        store a network was given."""
        env_root = tmp_path / "env"
        env_root.mkdir()
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_root))
        pinned = ArtifactStore(tmp_path / "pinned")
        pairs = [(s, (3 * s + 1) % graph.n) for s in range(graph.n)]
        for storage in ("dense", "blocked"):
            for store in (pinned, None):
                net = Network(graph, seed=5, store=store)
                with forced(storage):
                    for name in COMPILED_SCHEMES:
                        router = net.router(name)
                        assert router.resolve_engine() == "vectorized", name
                        assert len(router.route_many(pairs)) == len(pairs)
        assert list(env_root.iterdir()) == []
        assert {e.kind for e in pinned.entries()} == {"oracle", "rtz"}


# ----------------------------------------------------------------------
# artifact registry surface
# ----------------------------------------------------------------------
class TestArtifactRegistry:
    def test_kinds_cover_legacy_accessors(self):
        assert {"oracle", "naming", "metric", "rtz", "hierarchy",
                "spanner", "cover", "hashed_naming"} <= set(artifact_kinds())

    def test_unknown_kind_lists_choices(self, graph):
        from repro.api.artifacts import UnknownArtifactError

        with pytest.raises(UnknownArtifactError) as exc:
            Network(graph, store=None).artifact("nope")
        assert "oracle" in str(exc.value)

    def test_param_validation(self, graph):
        net = Network(graph, store=None)
        with pytest.raises(ConstructionError):
            net.artifact("rtz", wrong_param=3)
        with pytest.raises(ConstructionError):
            net.artifact("cover", k="x", scale=2.0)

    def test_labels_match_legacy_accessors(self, graph):
        net = Network(graph, seed=2, store=None)
        net.oracle()
        net.rtz()
        net.hierarchy(2)
        net.cover(2, 8.0)
        net.hashed_naming()
        info = net.stats().cache.as_dict()
        assert {"oracle", "rtz", "hierarchy[k=2]",
                "cover[k=2,scale=8.0]"} <= set(info)
        assert any(label.startswith("hashed[universe=") for label in info)

    def test_accessors_delegate_to_artifact(self, graph):
        net = Network(graph, seed=2, store=None)
        assert net.oracle() is net.artifact("oracle")
        assert net.rtz() is net.artifact("rtz")

    def test_instance_shim_removed(self, graph):
        net = Network(graph, seed=2, store=None)
        assert not hasattr(net, "instance")


# ----------------------------------------------------------------------
# unified stats family
# ----------------------------------------------------------------------
class TestStatsFamily:
    def test_session_stats_shape(self, graph, store):
        net = Network(graph, seed=2, store=store)
        router = net.router("stretch6")
        router.route_many([(0, 5), (1, 7)])
        stats = SessionStats.collect(net, [router])
        doc = stats.as_dict()
        assert "artifacts" in doc and "engines" in doc and "store" in doc
        assert doc["store"]["puts"] >= 1
        text = stats.format()
        assert "shared artifacts:" in text
        assert "execution engines:" in text
        assert "store (" in text

    def test_store_off_renders(self, graph):
        net = Network(graph, seed=2, store=None)
        net.oracle()
        stats = SessionStats.collect(net, [])
        assert "store: off" in stats.format()
        assert stats.as_dict()["store"] is None

    def test_stats_family_replaces_dict_shims(self, graph):
        net = Network(graph, seed=2, store=None)
        net.oracle()
        assert not hasattr(net, "cache_info")
        info = net.stats().cache.as_dict()
        assert set(info["oracle"]) == {"builds", "hits", "store_hits",
                                       "seconds"}
        router = net.router("stretch6")
        assert not hasattr(router, "engine_info")
        engines = router.stats().as_dict()
        assert set(engines) == {"vectorized", "python"}
        assert set(engines["python"]) == {"batches", "pairs", "seconds",
                                          "shards"}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestStoreCli:
    def test_store_ls_gc_verify_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["store", "ls", "--cache-dir", cache]) == 0
        assert "(empty)" in capsys.readouterr().out

        rc = main(["traffic", "--scheme", "stretch6", "--n", "16",
                   "--pairs", "20", "--cache-dir", cache])
        assert rc == 0
        capsys.readouterr()

        assert main(["store", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "entries" in out

        assert main(["store", "verify", "--cache-dir", cache]) == 0
        assert "0 quarantined" in capsys.readouterr().out

        assert main(["store", "gc", "--cache-dir", cache,
                     "--max-bytes", "1"]) == 0
        assert "evicted" in capsys.readouterr().out

        assert main(["store", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out

    def test_store_verify_exits_nonzero_on_corruption(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        store = ArtifactStore(cache)
        blob = store.put(_key(), _arrays())
        blob.write_bytes(b"garbage")
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 1
        assert "1 quarantined" in capsys.readouterr().out

    def test_no_store_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_STORE", "1")
        rc = main(["traffic", "--scheme", "stretch6", "--n", "16",
                   "--pairs", "20", "--no-store", "--verbose-cache"])
        assert rc == 0
        assert "store: off" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_warm_start_second_run_builds_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", "1")
        argv = ["traffic", "--scheme", "stretch6", "--n", "32",
                "--pairs", "40", "--verbose-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out

        # the oracle and substrate came from the store, not a rebuild
        for label in ("oracle", "rtz"):
            match = re.search(
                rf"{label}\s+builds=(\d+) hits=\d+ store_hits=(\d+)", second
            )
            assert match is not None, second
            assert match.group(1) == "0", f"{label} rebuilt on warm run"
            assert match.group(2) == "1"

        def summary_block(text: str) -> str:
            # everything up to the stats block is the routed summary,
            # with wall-clock-dependent lines dropped
            block = text.split("shared artifacts:")[0]
            return "\n".join(
                line for line in block.splitlines()
                if "build time" not in line and "throughput" not in line
            )

        assert "stretch" in summary_block(second)
        assert summary_block(first) == summary_block(second)
