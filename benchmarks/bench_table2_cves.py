"""Table 2: CVE ranges, TVVs, and per-advisory affected shares."""

from _helpers import record

from repro.vulndb import MatchMode, RangeAccuracy

#: Paper Table 2: advisory -> (library, share of library users affected
#: under the stated CVE range).
PAPER_AFFECTED = {
    "CVE-2020-7656": ("jquery", 0.122),
    "CVE-2020-11023": ("jquery", 0.562),
    "CVE-2020-11022": ("jquery", 0.561),
    "CVE-2019-11358": ("jquery", 0.546),
    "CVE-2015-9251": ("jquery", 0.177),
    "CVE-2012-6708": ("jquery", 0.125),
    "CVE-2019-8331": ("bootstrap", 0.277),
    "CVE-2021-41182": ("jquery-ui", 0.602),
    "CVE-2017-18214": ("moment", 0.337),
    "CVE-2020-27511": ("prototype", 1.00),
}


def _affected_share(store, identifier, library, mode=MatchMode.CVE):
    affected = store.average(
        lambda agg: agg.advisory_sites[mode].get(identifier, 0)
    )
    users = store.average(lambda agg: agg.library_users.get(library, 0))
    return affected / max(users, 1e-9)


def test_table2_verdicts(benchmark, study):
    summary = benchmark(study.cve_accuracy_summary)
    counts = summary.counts(cve_only=True)
    record(
        benchmark,
        paper_understated=5,
        measured_understated=counts[RangeAccuracy.UNDERSTATED],
        paper_overstated=8,
        measured_overstated=counts[RangeAccuracy.OVERSTATED],
    )
    assert counts[RangeAccuracy.UNDERSTATED] == 5
    assert counts[RangeAccuracy.OVERSTATED] == 8
    assert summary.incorrect_cves == 13


def test_table2_affected_shares(benchmark, study, store):
    def shares():
        return {
            identifier: _affected_share(store, identifier, library)
            for identifier, (library, _) in PAPER_AFFECTED.items()
        }

    measured = benchmark(shares)
    for identifier, (library, expected) in PAPER_AFFECTED.items():
        record(
            benchmark,
            **{
                f"paper_{identifier}": expected,
                f"measured_{identifier}": measured[identifier],
            },
        )
        # Same ballpark: within 16 percentage points of the paper.
        assert abs(measured[identifier] - expected) < 0.16, identifier
