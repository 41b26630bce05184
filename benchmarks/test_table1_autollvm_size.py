"""Regenerates Table 1: AutoLLVM IR sizes per ISA combination."""

from repro.experiments import table1


def test_table1_autollvm_size(benchmark):
    result = benchmark.pedantic(table1.run, rounds=1, iterations=1)
    print("\n" + table1.render(result))
    # With REPRO_IRGEN_CACHE set the partition warm-loads from the irgen
    # artifact; the build's stats travel with the artifact either way.
    print(f"[table1] {result.checks} checks")
    assert result.checks > 0

    # Shape assertions (see EXPERIMENTS.md for the paper's values).
    for row in result.rows:
        assert row.autollvm_size < row.isa_size / 2, row.isas
    combined = result.row(("x86", "hvx", "arm"))
    individual_sum = sum(
        result.row((isa,)).autollvm_size for isa in ("x86", "hvx", "arm")
    )
    assert combined.autollvm_size < individual_sum
    ratios = {isa: result.row((isa,)).percent for isa in ("x86", "hvx", "arm")}
    assert ratios["x86"] < ratios["arm"] < ratios["hvx"]
