import hashlib
import json
from collections import Counter

import pytest

from riskpath import (
    CorpusStats,
    GenSpec,
    GenerationError,
    Layer,
    Pathway,
    PlantedChain,
    RawTriple,
    RiskPathError,
    aggregate,
    build_graph,
    generate,
    parse_entity_meta,
    parse_triples,
    pathway_frequency,
)
from riskpath.syngen import GenResult, write_corpus
import riskpath.syngen as syngen_mod

PSE_CHAIN = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC,
                          Layer.SOCIAL, Layer.ECONOMIC), attestations=1)


def small_spec(**overrides):
    params = dict(n_docs=60, seed=5, entities_per_layer=40,
                  planted_chains=(PSE_CHAIN,), background_noise=1.5)
    params.update(overrides)
    return GenSpec(**params)


def ingest_result(result):
    triples = [RawTriple(t["s"], t["p"], t["o"], t["doc"]) for t in result.triples]
    meta = [
        parse_entity_meta_line(row) for row in result.entities
    ]
    return aggregate(triples, meta)


def parse_entity_meta_line(row):
    from riskpath import EntityMeta
    return EntityMeta(name=row["name"], layer=Layer.from_string(row["layer"]),
                      severity=row["severity"], aliases=tuple(row["aliases"]))


class TestGenSpecValidation:
    def test_range_bounds(self):
        with pytest.raises(GenerationError):
            GenSpec(n_docs=1, relations_per_doc=(0, 5))
        with pytest.raises(GenerationError):
            GenSpec(n_docs=1, relations_per_doc=(5, 200))
        with pytest.raises(GenerationError):
            GenSpec(n_docs=1, relations_per_doc=(9, 8))

    def test_chain_must_fit_document(self):
        chain = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC,
                              Layer.SOCIAL), attestations=1)
        with pytest.raises(GenerationError, match="cannot fit"):
            GenSpec(n_docs=5, relations_per_doc=(1, 2), planted_chains=(chain,))

    def test_chain_length_cap(self):
        with pytest.raises(GenerationError, match="maximum"):
            PlantedChain(tuple([Layer.PHYSICAL] + [Layer.SOCIAL] * 6))

    def test_attestations_exceed_docs(self):
        chain = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL), attestations=9)
        with pytest.raises(GenerationError, match="attestation"):
            GenSpec(n_docs=5, planted_chains=(chain,))

    def test_chain_parse(self):
        chain = PlantedChain.parse("P,S,E,S,E:3")
        assert chain.layers == PSE_CHAIN.layers
        assert chain.attestations == 3
        assert PlantedChain.parse("physical,social").attestations == 1
        with pytest.raises(GenerationError):
            PlantedChain.parse("P,X")
        assert PlantedChain.parse("P,S:").attestations == 1
        for text in ("P,S:abc", "P,S:1.5"):
            with pytest.raises(GenerationError, match="not an integer"):
                PlantedChain.parse(text)

    @pytest.mark.parametrize("overrides", [
        {"popularity_skew": float("nan")},
        {"background_noise": float("inf")},
        {"n_docs": True},
        {"seed": 1.5},
        {"popularity_skew": -0.5},
        {"planted_severity": 1.5},
        {"planted_severity": -0.1},
        {"background_noise": -0.01},
        {"relations_per_doc": (15,)},
        {"relations_per_doc": (1.5, 15)},
        {"relations_per_doc": (True, 15)},
        {"relations_per_doc": 5},
        {"planted_chains": ("P,S",)},
        {"planted_chains": 3},
    ], ids=["nan-skew", "inf-noise", "bool-docs", "float-seed", "negative-skew",
            "severity-above-one", "negative-severity", "negative-noise",
            "one-relations-bound", "float-relations-bound", "bool-relations-bound",
            "int-relations", "string-chain", "int-chains"])
    def test_field_invariants(self, overrides):
        with pytest.raises(RiskPathError):
            small_spec(**overrides)

    def test_lists_are_converted(self):
        spec = small_spec(relations_per_doc=[4, 5], planted_chains=[PSE_CHAIN])
        assert spec.relations_per_doc == (4, 5)
        assert spec.planted_chains == (PSE_CHAIN,)
        assert PlantedChain([Layer.PHYSICAL, Layer.SOCIAL]).layers == \
            (Layer.PHYSICAL, Layer.SOCIAL)

    @pytest.mark.parametrize("layers, attestations", [
        (("P", "S"), 1),
        (("physical", "social"), 1),
        ((Layer.PHYSICAL, Layer.SOCIAL), 1.5),
        ((Layer.PHYSICAL, Layer.SOCIAL), True),
        (3, 1),
    ], ids=["initials", "layer-names", "float-attestations", "bool-attestations",
            "int-layers"])
    def test_planted_chain_field_types(self, layers, attestations):
        with pytest.raises(GenerationError):
            PlantedChain(layers, attestations=attestations)

    def test_skew_too_large_for_pool(self):
        with pytest.raises(GenerationError, match="popularity_skew"):
            generate(small_spec(popularity_skew=1000.0))

    @pytest.mark.parametrize("bias, common_chains, formable", [
        (1.0, 0, 144), (0.0, 0, 432), (0.5, 0, 576), (0.0, 2, 428), (1.0, 2, 144)])
    def test_noise_capped_at_formable_edges(self, bias, common_chains, formable):
        # 9 entities and 8 predicates, no self-loops: 144 same-layer and 432
        # cross-layer edges, less the cross-layer edges of the common chains
        spec = dict(n_docs=5, seed=1, entities_per_layer=3, same_layer_bias=bias,
                    common_chains=common_chains)
        generate(GenSpec(background_noise=formable / 9, **spec))
        with pytest.raises(GenerationError, match="background_noise"):
            generate(GenSpec(background_noise=(formable + 1) / 9, **spec))

    @pytest.mark.parametrize("bias, noise_target, kind", [
        (1e-9, 433, "1 same-layer"), (1 - 1e-9, 145, "1 cross-layer")])
    def test_noise_kind_beyond_bias_share(self, bias, noise_target, kind):
        # one edge more than the other kind's 432 cross-layer or 144 same-layer
        # edges, which the sampler draws about once in 1e9 attempts
        spec = GenSpec(n_docs=5, seed=1, entities_per_layer=3, same_layer_bias=bias,
                       common_chains=0, background_noise=noise_target / 9)
        with pytest.raises(GenerationError, match=f"needs {kind} noise edges"):
            generate(spec)


class TestGeneration:
    def test_empty_corpus(self):
        result = generate(GenSpec(n_docs=0, seed=1))
        assert result.triples == []
        assert result.manifest["counts"]["docs"] == 0
        assert result.manifest["counts"]["relations"] == 0
        assert result.manifest["chains"] == []

    def test_deterministic_outputs(self, tmp_path):
        spec = small_spec()
        a = write_corpus(generate(spec), tmp_path / "a")
        b = write_corpus(generate(spec), tmp_path / "b")
        for key in ("triples", "entities", "manifest"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_different_seed_differs(self):
        assert generate(small_spec(seed=1)).triples != \
            generate(small_spec(seed=2)).triples

    def test_per_doc_relation_counts_in_range(self):
        spec = small_spec(n_docs=100)
        result = generate(spec)
        per_doc = Counter(t["doc"] for t in result.triples)
        lo, hi = spec.relations_per_doc
        assert len(per_doc) == spec.n_docs
        for count in per_doc.values():
            assert lo <= count <= hi

    def test_manifest_counts_match_aggregate(self):
        result = generate(small_spec())
        agg = ingest_result(result)
        counts = result.manifest["counts"]
        assert counts["entities"] == len(agg.entities)
        assert counts["relations"] == len(agg.relations)
        assert counts["docs"] == agg.doc_count
        assert counts["triples"] == len(result.triples)
        graph = build_graph(agg.entities, agg.relations,
                            doc_count=agg.doc_count)
        by_layer = {layer.value: 0 for layer in Layer}
        for entity in graph.entities.values():
            by_layer[entity.layer.value] += 1
        assert counts["entities_by_layer"] == by_layer

    def test_planted_chain_frequency_is_exact(self):
        for attestations in (1, 3):
            chain = PlantedChain(PSE_CHAIN.layers, attestations=attestations)
            result = generate(small_spec(planted_chains=(chain,)))
            agg = ingest_result(result)
            manifest_chain = result.manifest["chains"][0]
            pathway = Pathway(tuple(manifest_chain["entities"]),
                              tuple(manifest_chain["relation_ids"]))
            stats = CorpusStats.from_graph(build_graph(agg.entities, agg.relations))
            assert pathway_frequency(pathway, stats) == attestations

    def test_planted_edges_only_in_attestation_docs(self):
        result = generate(small_spec())
        chain = result.manifest["chains"][0]
        planted = set(zip(chain["entities"], chain["predicates"],
                          chain["entities"][1:]))
        docs_with_planted = {t["doc"] for t in result.triples
                             if (t["s"], t["p"], t["o"]) in planted}
        assert docs_with_planted == set(chain["doc_ids"])
        # and each attestation doc carries the complete chain
        for doc in chain["doc_ids"]:
            edges_in_doc = {(t["s"], t["p"], t["o"]) for t in result.triples
                            if t["doc"] == doc}
            assert planted <= edges_in_doc

    def test_planted_severity_applied(self):
        result = generate(small_spec())
        chain_entities = set(result.manifest["chains"][0]["entities"])
        for row in result.entities:
            if row["name"] in chain_entities:
                assert row["severity"] == 0.9

    def test_chain_collision_detected(self, monkeypatch):
        monkeypatch.setattr(syngen_mod, "PREDICATES", ("only",))
        chain = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL), attestations=1)
        spec = GenSpec(n_docs=10, seed=3, entities_per_layer=1,
                       planted_chains=(chain, chain), background_noise=20.0)
        with pytest.raises(GenerationError, match="collide"):
            generate(spec)

    def test_background_pool_too_small(self):
        with pytest.raises(GenerationError, match="background"):
            generate(GenSpec(n_docs=5, seed=1, entities_per_layer=50,
                             background_noise=0.01, common_chains=0))


class TestCorpusFiles:
    def test_written_corpus_round_trips_through_ingest(self, tmp_path):
        result = generate(small_spec())
        paths = write_corpus(result, tmp_path)
        with open(paths["triples"], "r", encoding="utf-8") as fh:
            triples, errors = parse_triples(fh)
        assert errors == []
        assert len(triples) == result.manifest["counts"]["triples"]
        with open(paths["entities"], "r", encoding="utf-8") as fh:
            meta = parse_entity_meta(fh)
        assert len(meta) == result.manifest["counts"]["entities_generated"]
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest == result.manifest

    def test_malformed_injection(self, tmp_path):
        result = generate(small_spec(malformed_rate=0.05))
        assert result.malformed_lines
        paths = write_corpus(result, tmp_path)
        with open(paths["triples"], "r", encoding="utf-8") as fh:
            triples, errors = parse_triples(fh, malformed_tolerance=0.2)
        assert len(errors) == len(result.malformed_lines)
        assert len(triples) == len(result.triples)

    @pytest.mark.parametrize("spec, digests", [
        (GenSpec(n_docs=5000, seed=7, planted_chains=(PlantedChain.parse("P,S,E,S,E:1"),)),
         {"triples": "02cb30e4afe4f161f6d6a4c60fb8b97b57267852b14bd2554acbd07f5f764b75",
          "entities": "554aa61250d223ce4a36aec9cb5af0b17270103c7fe0c6fc539f3ba4ea22df2c",
          "manifest": "27f5137d844331191913924e4ef9f7fa6d9e6e339ba2e61838347c9ba5e57afc"}),
        # injects malformed lines at 44, 73 and 74
        (small_spec(malformed_rate=0.05),
         {"triples": "1b5883fe5a3391985e28a48ffe19f6760e3e7ba74a40dbfef29a3986b2caa6ec",
          "entities": "b683b1627bfb3859ea6de50b307b4134b3989227a84f4c8e9fa5255f142cd1d3",
          "manifest": "8810e726850315efeebee1cba403e58e596535f9697fa5f53cf212168fa8e58a"}),
    ], ids=["benchmark-spec", "malformed"])
    def test_corpus_bytes_are_pinned(self, tmp_path, spec, digests):
        paths = write_corpus(generate(spec), tmp_path)
        assert {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
                for key in digests} == digests

    def test_triple_lines_match_json_dumps(self, tmp_path):
        texts = ["caf\u00e9-\u03b1\u6f22", 'say "hi"', "back\\slash", "tab\there",
                 "line\u2028sep", "lone\ud800", "plain"]
        triples = [{"s": texts[i % 7], "p": texts[(i + 1) % 7], "o": texts[(i + 2) % 7],
                    "doc": texts[(i + 3) % 7]} for i in range(7)]
        malformed = [(0, '{"s": "broken-0"'), (3, "not json"), (4, "\u00fcber {"),
                     (len(triples), '{"p": "missing fields"')]
        write_corpus(GenResult(triples=triples, entities=[], manifest={},
                               malformed_lines=malformed), tmp_path)
        lines = [json.dumps(row, sort_keys=True) + "\n" for row in triples]
        for pos, text in reversed(malformed):
            lines.insert(pos, text + "\n")
        assert (tmp_path / "triples.jsonl").read_bytes() == "".join(lines).encode("utf-8")

    def test_no_triples_writes_an_empty_file(self, tmp_path):
        paths = write_corpus(GenResult(triples=[], entities=[], manifest={}), tmp_path)
        assert paths["triples"].read_bytes() == b""
