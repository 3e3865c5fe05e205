import random

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
    witness_cycle6,
    witness_for,
)
from stardiag.base import DomainError, VerificationError
from stardiag.graph import TopologyGraph
from stardiag.syndrome import STRATEGIES
from stardiag.topologies import from_descriptor

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


def test_diagnose_recovers_unique_fault(c6):
    assignment = build_assignment(c6, Model.PMC)
    syn = generate_syndrome(assignment, {"u3"}, "zeros")
    assert diagnose(c6, syn, 2, 1) == [frozenset({"u3"})]


def test_diagnose_rejects_a_syndrome_of_another_graph(c6, s42):
    syn = generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros")
    with pytest.raises(DomainError, match="bound to a different graph"):
        diagnose(s42, syn, 2, 1)


def test_diagnose_finds_both_sets_of_the_cycle6_pair(c6):
    wit = witness_cycle6()
    assignment = build_assignment(c6, Model.MM)
    syn = ambiguity_syndrome(assignment, wit.f1, wit.f2)
    assert diagnose(c6, syn, 2, 1) == [wit.f1, wit.f2]


def _witness_cases():
    """(graph, ambiguity syndrome, t, g) for every witness cell on S_{3,2}, S_{4,2} and S_{5,2}."""
    for n in (3, 4, 5):
        for g in range(1, n):
            for model in Model:
                name = witness_for(n, 2, g, model)
                if name:
                    wit = build_witness(name, n, 2, g)
                    graph = from_descriptor(wit.descriptor)
                    syn = ambiguity_syndrome(build_assignment(graph, model), wit.f1, wit.f2)
                    yield graph, syn, max(len(wit.f1), len(wit.f2)), g


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
        assert diagnose(graph, syn, t, g) == want, (graph.descriptor, syn.strategy, t, g)


def test_diagnose_counts_its_search(s42):
    wit = build_witness("general", 4, 2, 2)
    for model in Model:
        assignment = build_assignment(s42, model)
        for syn in (
            ambiguity_syndrome(assignment, wit.f1, wit.f2),
            generate_syndrome(assignment, wit.f1, "random", seed=4),
        ):
            stats = {}
            found = diagnose(s42, syn, len(wit.f2), 2, stats=stats)
            assert set(stats) == {"search_nodes", "forced", "leaves"}
            assert min(stats.values()) > 0
            assert stats["leaves"] >= len(found) >= 1
    # at t = 0 every vertex is fault-free from the root on
    stats = {}
    silent = generate_syndrome(build_assignment(s42, Model.PMC), set(), "zeros")
    assert diagnose(s42, silent, 0, 2, stats=stats) == [frozenset()]
    assert stats == {"search_nodes": 1, "forced": 0, "leaves": 1}
    # all ones: a fault-free vertex has every neighbor faulty, so at g = 1 each
    # fault-free branch dies where it starts and the search stays linear in |V|
    assignment = build_assignment(s42, Model.PMC)
    assert diagnose(s42, Syndrome(assignment, (1,) * 36), 11, 1, stats=stats) == []
    assert stats["search_nodes"] < 2 * s42.vertex_count


def test_ambiguity_syndrome_on_witness_pair(c6):
    wit = witness_cycle6()
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
    # the fields are split on whitespace, so '|' and '->' inside a label are kept
    graph = TopologyGraph.from_edgelist_text("a|b x->y\nx->y c\nc a|b\nc d\n")
    assert graph.cell is None
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


def test_syndrome_text_rejects_duplicate_units(c6):
    text = syndrome_to_text(generate_syndrome(build_assignment(c6, Model.PMC), set(), "zeros"))
    head, first, *rest = text.splitlines()
    flipped = first.rpartition("->")[0] + "-> 1"
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "\n".join([head, first, flipped, *rest]) + "\n")
    with pytest.raises(DomainError):
        syndrome_from_text(c6, "\n".join([head, first, first, *rest]) + "\n")
