import hashlib
import random
from collections import Counter

import pytest

from stardiag import (
    Model,
    Syndrome,
    ambiguity_syndrome,
    build_assignment,
    build_complete,
    build_nk_star,
    build_witness,
    diagnose,
    generate_syndrome,
    is_consistent,
    syndrome_from_text,
    syndrome_to_text,
    witness_for,
)
from stardiag.base import DomainError, VerificationError
from stardiag.faults import good_faulty_sets, indist_mask
from stardiag.graph import TopologyGraph
from stardiag.syndrome import STRATEGIES

from conftest import small_graphs
from reference_diagnose import diagnose as reference_diagnose


def test_assignment_unit_counts(s42, c6):
    k3 = build_complete(3)
    assert len(build_assignment(k3, Model.PMC).units) == 6  # 2|E|
    assert len(build_assignment(k3, Model.MM).units) == 3  # C(2,2) per vertex
    assert len(build_assignment(s42, Model.PMC).units) == 36
    assert len(build_assignment(s42, Model.MM).units) == 36  # 12 * C(3,2)
    assert len(build_assignment(c6, Model.MM).units) == 6


def test_assignment_units_are_well_formed(s42):
    pmc = build_assignment(s42, Model.PMC)
    for u, v, w in pmc.units:
        assert w is None
        assert (s42.nbr_masks[u] >> v) & 1
    mm = build_assignment(s42, Model.MM)
    for u, v, w in mm.units:
        assert u < v
        assert (s42.nbr_masks[w] >> u) & 1 and (s42.nbr_masks[w] >> v) & 1


def test_assignment_units_are_in_label_order():
    # units are sorted by index, which is label order since labels are sorted
    # at construction: the same tuple as a sort keyed on the labels
    for graph in small_graphs(12):
        for model in Model:
            units = build_assignment(graph, model).units
            by_label = sorted(units, key=lambda t: [graph.labels[i] for i in t if i is not None])
            assert units == tuple(by_label), (graph.descriptor, model)


def test_generate_syndrome_fault_free_is_all_zero(s42):
    for model in Model:
        syn = generate_syndrome(build_assignment(s42, model), set(), "random", seed=5)
        assert set(syn.outcomes) == {0}


def test_generate_syndrome_pmc_outcomes(c6):
    syn = generate_syndrome(build_assignment(c6, Model.PMC), {"u2"}, "zeros")
    graph = c6
    for (u, v, _), bit in zip(syn.assignment.units, syn.outcomes):
        if graph.labels[u] == "u2":
            assert bit == 0  # faulty tester forced to the zeros strategy
        else:
            assert bit == (1 if graph.labels[v] == "u2" else 0)


def test_generate_syndrome_mm_outcomes(c6):
    syn = generate_syndrome(build_assignment(c6, Model.MM), {"u2"}, "ones")
    graph = c6
    for (u, v, w), bit in zip(syn.assignment.units, syn.outcomes):
        names = {graph.labels[u], graph.labels[v]}
        if graph.labels[w] == "u2":
            assert bit == 1  # faulty comparator forced to the ones strategy
        else:
            assert bit == (1 if "u2" in names else 0)


def test_generate_syndrome_strategy_validation(c6):
    assignment = build_assignment(c6, Model.PMC)
    with pytest.raises(DomainError):
        generate_syndrome(assignment, set(), "coinflip")


def test_generate_syndrome_deterministic_per_seed(s42):
    assignment = build_assignment(s42, Model.PMC)
    a = generate_syndrome(assignment, {"12", "21"}, "random", seed=7)
    b = generate_syndrome(assignment, {"12", "21"}, "random", seed=7)
    c = generate_syndrome(assignment, {"12", "21"}, "random", seed=8)
    assert a.outcomes == b.outcomes
    assert a.outcomes != c.outcomes  # 5 controlled units, seed must matter


#: sha256 of syndrome_to_text(generate_syndrome(...)) with faulty set labels[1::3], keyed
#: (graph, model, strategy, seed): any change to a seeded outcome stream shows here
SEEDED_SYNDROME_SHA256 = {
    ("s42", "pmc", "random", 3): "ddcb97a37f416587b21d467f19ca0b7a0b6de5f695106e0a52887a73e5462c8a",
    ("s42", "pmc", "random", 2024): "220dd4fa5669fab0e0999bd37370f6707765ed27660419df15f504acfdee139a",
    ("s42", "pmc", "zeros", 3): "3c7edf5affc98681d6ab106e11749db24193c7a31fd551f1e55e2e28ddd7f513",
    ("s42", "pmc", "zeros", 2024): "6dffce1934d8a3ecfeb9d958fff5f2dedb0a3f13709c5e5d50504d31f333eaaa",
    ("s42", "pmc", "ones", 3): "2df7c4e674e497784b408511ca8069cc68b5b312d531408036d674197bdca7f0",
    ("s42", "pmc", "ones", 2024): "9125b9f572d2bead66c3eeebcb636668c442746ee8cd611c302805fce58cab19",
    ("s42", "mm", "random", 3): "c307297435bfc565e25c2ca25e0a33bc9e0e25f98c7e9aae859ca2ae1ebe6e11",
    ("s42", "mm", "random", 2024): "e65fe96ebc976a20a4f0261fbd5af4afe8e8552d77d41afdc3d5c5178274a1c7",
    ("s42", "mm", "zeros", 3): "e060b33941d4483062c49c09de97abadf70453cad7a35b5040a4a3e4e2c2e2bb",
    ("s42", "mm", "zeros", 2024): "e46500d47f5c1455fd2e28fe0b9af3059c9cdf6c4d1b9f6df1f67a9927811051",
    ("s42", "mm", "ones", 3): "600bf5f4f0227a2d5f51e2b985c04aef36adea22f46480b7ad7be1c2bdc674dc",
    ("s42", "mm", "ones", 2024): "bb24a95af794c645331beb83958fa11d349346ac8cb76ac54e45ed2eb5a35165",
    ("c6", "pmc", "random", 3): "3432920a32d7de2ba91d0c489109cdf7bbb853714a787f96821256341a2050a3",
    ("c6", "pmc", "random", 2024): "298c423c434e034a420520bb8274eac696b6d1ba2e323b01781739bf18968e51",
    ("c6", "pmc", "zeros", 3): "f3f5bc96e25da16b429b454cc3bacdd338442626bc5368149cc4f32b9ac0525d",
    ("c6", "pmc", "zeros", 2024): "b35bffad890bf7e0eec43e6c3d594e68a83b5a9b01dce82824d93c09fecda23b",
    ("c6", "pmc", "ones", 3): "1ff54f2a6f9c36ef49a36d311ce2c2a4df5c8c715bdbf5c27efac0b72701b0eb",
    ("c6", "pmc", "ones", 2024): "87986654f92002586d0d9cf464e573288214ec6a7e052cfedc01b5d6ce1ff066",
    ("c6", "mm", "random", 3): "d9676ddb2b0043a092da81ec7d84a2182be99a239eedbdc48b722e9d4f808793",
    ("c6", "mm", "random", 2024): "ac2c2951a8b646967b69d70336ef412fd53536cd69ec374e8fe3eb3f834cb2df",
    ("c6", "mm", "zeros", 3): "0d83330c26e6090d5a6a307a8f969386c7b8b030989da54b22a17353049b65da",
    ("c6", "mm", "zeros", 2024): "1cc512d6245b9247c8d4218ecc3fe813b1f519a5897e7c51466122064eca1109",
    ("c6", "mm", "ones", 3): "cd223c1c845e6ba265833678917fe34e1250a0c7cac3afbaa64070679f415133",
    ("c6", "mm", "ones", 2024): "7895b11ddbc907adee61b71556835f62a06282c80580b946a998021f086ad29d",
    ("k5", "pmc", "random", 3): "62274178512d931d324c83846e667ef13420fbcf7fcab8ea1b1ddc151125cd98",
    ("k5", "pmc", "random", 2024): "098ada91d78debd14eb5c108cb689d1e85a400b92121dbcfa166baba5d93b75a",
    ("k5", "pmc", "zeros", 3): "52316b74122f4df50f5c20e52590aefe5a447cd7d5a1809e622543091974d75c",
    ("k5", "pmc", "zeros", 2024): "e7a9627bd1103bdfd7e9c1f95610bb33a0a677b3e7b926242a619d5039a4cdfc",
    ("k5", "pmc", "ones", 3): "95bf8e6a167e4b4e2b7ec05b50819f96e424f57d27f5c278844ffee5be4b6016",
    ("k5", "pmc", "ones", 2024): "fd21cdadd4d32f5cafcea717dba1e7249b74fd52a24efcc90091a93ba51d0bde",
    ("k5", "mm", "random", 3): "71490d0b345bd79ea975e8ca8abce2b8cbccd85c8bfcaab12eea5c9d8d730d6b",
    ("k5", "mm", "random", 2024): "c84637134ee70d74db2672c3c09e925ac551ddc7a5a726efa4535b00a6264e72",
    ("k5", "mm", "zeros", 3): "22234e0e0027dc76c523fb708cb773d558da3b2ed42d2d9587fcfe9b7506df1f",
    ("k5", "mm", "zeros", 2024): "809edd55a3bad20c42ee18c24718bfe6671496dc132243caeca38dcb78cf265f",
    ("k5", "mm", "ones", 3): "577bef5a4e2104cc20ab78bc58defdb9bed1772481aecd791f8a50838beacbdf",
    ("k5", "mm", "ones", 2024): "af9f12d880caef5d218bdfc618c68bd197f64e8be2e820466c1a9e3732c4965b",
}


def test_seeded_syndromes_are_pinned(s42, c6):
    got = {}
    for name, graph in (("s42", s42), ("c6", c6), ("k5", build_complete(5))):
        truth = graph.labels[1::3]
        for model in Model:
            assignment = build_assignment(graph, model)
            for strategy in STRATEGIES:
                for seed in (3, 2024):
                    text = syndrome_to_text(generate_syndrome(assignment, truth, strategy, seed))
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    got[name, model.value, strategy, seed] = digest
    assert got == SEEDED_SYNDROME_SHA256


def test_truth_is_always_consistent(s42, c6):
    rng = random.Random(2)
    for graph in (s42, c6):
        for model in Model:
            assignment = build_assignment(graph, model)
            for strategy in ("random", "zeros", "ones"):
                for _ in range(20):
                    truth = {lab for lab in graph.labels if rng.random() < 0.3}
                    syn = generate_syndrome(
                        assignment, truth, strategy, seed=rng.getrandbits(32)
                    )
                    assert is_consistent(truth, syn)


def test_syndrome_length_validated(c6):
    assignment = build_assignment(c6, Model.PMC)
    with pytest.raises(DomainError):
        Syndrome(assignment=assignment, outcomes=(0,))


def test_syndrome_rejects_an_outcome_other_than_0_or_1(c6):
    # diagnose would read 2 as 1 and return [{u3}], which is_consistent rejects
    zeros = generate_syndrome(build_assignment(c6, Model.PMC), {"u3"}, "zeros")
    assert 1 in zeros.outcomes
    with pytest.raises(DomainError, match="0 or 1"):
        Syndrome(zeros.assignment, tuple(2 * bit for bit in zeros.outcomes))


def test_diagnose_recovers_unique_fault(c6):
    assignment = build_assignment(c6, Model.PMC)
    syn = generate_syndrome(assignment, {"u3"}, "zeros")
    assert diagnose(syn, 2, 1) == [frozenset({"u3"})]


def test_diagnose_rejects_negative_g(c6):
    syn = generate_syndrome(build_assignment(c6, Model.PMC), {"u3"}, "zeros")
    with pytest.raises(DomainError, match="g must be nonnegative"):
        diagnose(syn, 2, -1)


def test_diagnose_finds_both_sets_of_the_cycle6_pair(c6):
    wit = build_witness(3, 2, 1)
    assignment = build_assignment(c6, Model.MM)
    syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
    assert diagnose(syn, 2, 1) == [wit.f1, wit.f2]


def _witness_cases():
    """(graph, ambiguity syndrome, t, g) for every witness cell on S_{3,2}, S_{4,2} and S_{5,2}."""
    for n in (3, 4, 5):
        for g in range(1, n):
            covered = witness_for(n, 2, g)
            if covered:
                wit = build_witness(n, 2, g)
                for model in covered[1]:
                    syn = ambiguity_syndrome(build_assignment(wit.graph, model), wit.f1, wit.f2)
                    yield wit.graph, syn, max(len(wit.f1), len(wit.f2)), g


def test_diagnose_matches_the_reference_enumeration():
    rng = random.Random(6)
    cases = list(_witness_cases())
    assert len(cases) == 7
    s52 = build_nk_star(5, 2)
    for graph in small_graphs(12) + [s52]:
        for model in Model:
            assignment = build_assignment(graph, model)
            for g in range(4):
                # on S_{5,2} the reference walks every set of size <= t: keep t small
                # there, and keep only the fully random and the random-strategy syndromes
                t = rng.randint(0, 4 if graph is s52 else graph.vertex_count)
                coin = tuple(rng.getrandbits(1) for _ in assignment.units)
                syndromes = [Syndrome(assignment, coin)]
                for strategy in STRATEGIES:
                    truth = graph.labels_of(rng.getrandbits(graph.vertex_count))
                    syndromes.append(generate_syndrome(assignment, truth, strategy, rng.getrandbits(32)))
                cases += [(graph, syn, t, g) for syn in syndromes[: 2 if graph is s52 else None]]
    for graph, syn, t, g in cases:
        want = reference_diagnose(graph, syn, t, g, budget=20)
        assert diagnose(syn, t, g) == want, (graph.descriptor, syn.strategy, t, g)


def test_diagnose_counts_its_search(s42):
    wit = build_witness(4, 2, 2)
    for model in Model:
        assignment = build_assignment(s42, model)
        for syn in (
            ambiguity_syndrome(assignment, wit.f1, wit.f2),
            generate_syndrome(assignment, wit.f1, "random", seed=4),
        ):
            stats = {}
            found = diagnose(syn, len(wit.f2), 2, stats=stats)
            assert set(stats) == {"search_nodes", "forced", "leaves"}
            assert min(stats.values()) > 0
            assert stats["leaves"] >= len(found) >= 1
    # at t = 0 every vertex is fault-free from the root on
    stats = {}
    silent = generate_syndrome(build_assignment(s42, Model.PMC), set(), "zeros")
    assert diagnose(silent, 0, 2, stats=stats) == [frozenset()]
    assert stats == {"search_nodes": 1, "forced": 0, "leaves": 1}
    # all ones: a fault-free vertex has every neighbor faulty, so at g = 1 each
    # fault-free branch dies where it starts and the search stays linear in |V|
    assignment = build_assignment(s42, Model.PMC)
    assert diagnose(Syndrome(assignment, (1,) * 36), 11, 1, stats=stats) == []
    assert stats["search_nodes"] < 2 * s42.vertex_count


def test_ambiguity_syndrome_on_witness_pair(c6):
    wit = build_witness(3, 2, 1)
    for model in Model:
        assignment = build_assignment(c6, model)
        if model is Model.PMC:
            # the cycle pair is PMC-distinguishable, so no syndrome exists
            with pytest.raises(VerificationError):
                ambiguity_syndrome(assignment, wit.f1, wit.f2)
        else:
            syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
            assert is_consistent(wit.f1, syn)
            assert is_consistent(wit.f2, syn)


def test_ambiguity_syndrome_exists_exactly_for_indistinguishable_pairs():
    rng = random.Random(24)
    seen = Counter()
    for graph in small_graphs(8):
        for g in range(3):
            admissible = good_faulty_sets(graph, g)
            if len(admissible) < 2:
                continue
            pairs = [rng.sample(admissible, 2) for _ in range(40)]
            # pairs one vertex apart, where indistinguishable pairs are common
            members = set(admissible)
            for m1 in rng.sample(admissible, min(40, len(admissible))):
                m2 = m1 ^ 1 << rng.randrange(graph.vertex_count)
                if m2 in members:
                    pairs.append((m1, m2))
            for model in Model:
                assignment = build_assignment(graph, model)
                for m1, m2 in pairs:
                    f1, f2 = graph.labels_of(m1), graph.labels_of(m2)
                    indist = indist_mask(graph, m1, m2, model)
                    seen[model, indist] += 1
                    if indist:
                        syn = ambiguity_syndrome(assignment, f1, f2)
                        assert is_consistent(f1, syn) and is_consistent(f2, syn)
                    else:
                        with pytest.raises(VerificationError, match="pair is distinguishable"):
                            ambiguity_syndrome(assignment, f1, f2)
    assert min(seen.values()) >= 200, seen


def test_ambiguity_syndrome_rejects_equal_sets(c6):
    assignment = build_assignment(c6, Model.MM)
    with pytest.raises(DomainError):
        ambiguity_syndrome(assignment, {"u1"}, {"u1"})


def test_syndrome_text_round_trip(s42, c6):
    rng = random.Random(11)
    for graph in (s42, c6):
        for model in Model:
            assignment = build_assignment(graph, model)
            truth = {lab for lab in graph.labels if rng.random() < 0.3}
            syn = generate_syndrome(assignment, truth, "random", seed=13)
            text = syndrome_to_text(syn)
            back = syndrome_from_text(graph, text)
            assert back.outcomes == syn.outcomes
            assert back.assignment.units == assignment.units
            assert syndrome_to_text(back) == text


def test_syndrome_text_round_trips_labels_holding_the_separators():
    # the fields are split on whitespace, which the constructor keeps out of every
    # label, so '|' and '->' inside a label are kept, by the edge list too
    graph = TopologyGraph.from_edgelist_text("a|b x->y\nx->y c\nc a|b\nc d\u00fc\n")
    assert graph.cell is None
    assert TopologyGraph.from_edgelist_text(graph.to_edgelist()) == graph
    for model in Model:
        syn = generate_syndrome(build_assignment(graph, model), {"a|b"}, "random", seed=5)
        text = syndrome_to_text(syn)
        assert text.startswith(f"{model.value} 0 0 5 random\n")
        assert ("a|b c | x->y -> " if model is Model.MM else "a|b x->y -> ") in text
        back = syndrome_from_text(graph, text)
        assert back.outcomes == syn.outcomes and syndrome_to_text(back) == text


def test_syndrome_text_format(c6):
    syn = generate_syndrome(build_assignment(c6, Model.PMC), {"u2"}, "zeros", seed=3)
    text = syndrome_to_text(syn)
    lines = text.splitlines()
    assert lines[0] == "pmc 3 2 3 zeros"
    assert "u1 u2 -> 1" in lines
    assert lines[1:] == sorted(lines[1:])


def test_syndrome_text_rejects_damage(c6):
    syn = generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros")
    text = syndrome_to_text(syn)
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "")
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "pmc 3 2\n")
    # drop one unit line
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "\n".join(text.splitlines()[:-1]) + "\n")
    # a unit line naming one vertex
    with pytest.raises(DomainError):
        syndrome_from_text(c6, text.splitlines()[0] + "\nu1 -> 0\n")
    # a unit line without an outcome
    head, _, *rest = text.splitlines()
    with pytest.raises(DomainError, match="bad syndrome line 'u1 u2 0'"):
        syndrome_from_text(c6, "\n".join([head, "u1 u2 0", *rest]) + "\n")
    # the arrow and the outcome are separate fields
    with pytest.raises(DomainError, match="bad syndrome line 'u1 u2 ->0'"):
        syndrome_from_text(c6, "\n".join([head, "u1 u2 ->0", *rest]) + "\n")
    # u1 and u3 are not adjacent on C_6, so no PMC test runs between them
    with pytest.raises(DomainError, match="units not in the assignment"):
        syndrome_from_text(c6, text + "u1 u3 -> 0\n")


def test_syndrome_text_names_a_missing_unit_as_its_line_does(c6):
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.MM), set(), "zeros"))
    assert "\nu1 u3 | u2 -> 0\n" in text
    with pytest.raises(DomainError, match=r"missing unit 'u1 u3 \| u2'$"):
        syndrome_from_text(c6, text.replace("u1 u3 | u2 -> 0\n", ""))


def test_syndrome_text_rejects_a_foreign_unit_at_its_line(c6):
    # u and v swapped: every label is a vertex, but no MM* unit reads (u3, u1; u2)
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.MM), set(), "zeros"))
    swapped = text.replace("u1 u3 | u2 -> 0", "u3 u1 | u2 -> 0")
    with pytest.raises(DomainError, match=r"not in the assignment: 'u3 u1 \| u2 -> 0'"):
        syndrome_from_text(c6, swapped)


def test_syndrome_text_rejects_bad_outcomes(c6):
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros"))
    head, first, *rest = text.splitlines()
    for bad in ("7", "x", "-1", ""):
        damaged = first.rpartition("->")[0] + "-> " + bad
        with pytest.raises(DomainError):
            syndrome_from_text(c6, "\n".join([head, damaged, *rest]) + "\n")


def test_syndrome_text_rejects_a_foreign_header(c6, s42):
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros"))
    assert text.startswith("pmc 3 2 ")
    with pytest.raises(DomainError):
        syndrome_from_text(c6, text.replace("pmc 3 2 ", "pmc 4 2 ", 1))
    with pytest.raises(DomainError):
        syndrome_from_text(c6, text.replace("pmc 3 2 0 ", "pmc 3 2 x ", 1))  # bad seed
    with pytest.raises(DomainError, match="unknown model 'xyz'"):
        syndrome_from_text(c6, text.replace("pmc ", "xyz ", 1))
    s42_text = syndrome_to_text(generate_syndrome(build_assignment(s42, Model.MM), set(), "zeros"))
    with pytest.raises(DomainError):
        syndrome_from_text(s42, s42_text.replace("mm 4 2 ", "mm 4 3 ", 1))


def test_syndrome_text_takes_only_the_strategies_a_syndrome_can_carry(c6):
    assignment = build_assignment(c6, Model.MM)
    given = Syndrome(assignment, generate_syndrome(assignment, {"u1"}, "ones").outcomes)
    syndromes = [generate_syndrome(assignment, {"u1"}, strategy) for strategy in STRATEGIES]
    syndromes += [given, ambiguity_syndrome(assignment, {"u1", "u2"}, {"u4", "u5"})]
    assert [syn.strategy for syn in syndromes] == [*STRATEGIES, "given", "ambiguity"]
    for syn in syndromes:
        text = syndrome_to_text(syn)
        assert syndrome_to_text(syndrome_from_text(c6, text)) == text
    head, sep, body = syndrome_to_text(given).partition("\n")
    with pytest.raises(DomainError, match="unknown syndrome strategy 'banana'"):
        syndrome_from_text(c6, head.replace(" given", " banana") + sep + body)
    with pytest.raises(DomainError, match="unknown syndrome strategy 'banana'"):
        Syndrome(assignment, given.outcomes, strategy="banana")


def test_syndrome_text_rejects_duplicate_units(c6):
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros"))
    head, first, *rest = text.splitlines()
    flipped = first.rpartition("->")[0] + "-> 1"
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "\n".join([head, first, flipped, *rest]) + "\n")
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "\n".join([head, first, first, *rest]) + "\n")
