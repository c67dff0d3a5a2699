"""Golden digests: every report file stays byte-identical across refactors.

Each case runs one CLI invocation and compares the SHA-256 of every file it
writes against a recorded constant. manifest.json is left out because it
echoes input paths. Inputs are the bd2012 fixture, a small seeded
synthetic corpus with clusters and two overlapping topics, and a copy of that
corpus with titles, abstracts, keywords and document types for the
delineation and doc-type filter cases.

To print the digests of the current code (for example after a deliberate
change of a report format), run ``python tests/test_golden.py`` with
``src`` on the import path.
"""

import hashlib
import json
import pathlib
import shutil
import sys

import pytest

from communitylens.cli import main
from communitylens.synthgen import GeneratorConfig, generate

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def make_synth(base: pathlib.Path) -> pathlib.Path:
    """Seeded clustered corpus; every third record also carries topic beta,
    and every fifteenth carries beta alone."""
    config = GeneratorConfig(
        seed=2021,
        authors_per_year={y: 30 for y in range(2008, 2018)},
        n_clusters=7,
        n_areas=3,
        topic="alpha",
    )
    generate(config, base)
    path = base / "publications.jsonl"
    lines = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        rec = json.loads(line)
        if i % 3 == 0:
            rec["topic_flags"] = ["beta"] if i % 5 == 0 else rec["topic_flags"] + ["beta"]
        lines.append(json.dumps(rec, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    make_text(base)
    return base


# Title words; "Big-Data", "big_data" and "BIG DATA" normalise to the phrase
# "big data", "big datasets" and "data, big" do not.
_TITLE_WORDS = ("Big-Data", "big datasets", "Networks", "data, big", "big_data", "Σοφία",
                "BIG DATA", "Graphs")
_DOC_TYPES = ("article", "review", "proceedings", "letter")


def make_text(base: pathlib.Path) -> pathlib.Path:
    """Copy of the synth corpus under base/text with text fields and doc types.

    Every record gets a title; every third an abstract; every other keywords,
    where "machine learning" is one keyword (a phrase) or split over two (not
    one). doc_type cycles through four values and is absent on every ninth.
    """
    text = base / "text"
    text.mkdir()
    for name in ("careers.csv", "clusters.csv"):
        shutil.copy(base / name, text / name)
    lines = []
    for i, line in enumerate((base / "publications.jsonl").read_text(encoding="utf-8").splitlines()):
        rec = json.loads(line)
        rec["title"] = f"{_TITLE_WORDS[i % len(_TITLE_WORDS)]} of study {i}"
        if i % 3 == 1:
            rec["abstract"] = "We apply Machine-Learning." if i % 4 == 1 else "A survey."
        if i % 2 == 0:
            rec["keywords"] = ["machine learning"] if i % 10 == 0 else ["machine", "learning"]
        if i % 9:
            rec["doc_type"] = _DOC_TYPES[i % len(_DOC_TYPES)]
        lines.append(json.dumps(rec, separators=(",", ":"), ensure_ascii=False))
    (text / "publications.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return text


def _inputs(corpus: str, base: pathlib.Path) -> list[str]:
    if corpus == "bd2012":
        fx = FIXTURES / "bd2012"
        return ["--corpus", str(fx / "publications.jsonl"), "--careers", str(fx / "careers.csv"),
                "--topic", "big data"]
    if corpus == "text":
        base = base / "text"
    return ["--corpus", str(base / "publications.jsonl"), "--careers", str(base / "careers.csv"),
            "--clusters", str(base / "clusters.csv"), "--topic", "alpha"]


TERMS = "big data,machine learning"


# case -> (corpus, subcommand and flags)
CASES = {
    "bd2012-cohorts": ("bd2012", ["cohorts"]),
    "bd2012-indicators": ("bd2012", ["indicators"]),
    "bd2012-indicators-variant": ("bd2012", ["indicators", "--raw", "--focus-mode", "annual",
                                             "--window", "3", "--stay-denominator", "all"]),
    "bd2012-compare": ("bd2012", ["compare", "--topic-b", "big data"]),
    "bd2012-compare-pooled": ("bd2012", ["compare", "--topic-b", "big data",
                                         "--pooled-thresholds"]),
    "synth-cohorts": ("synth", ["cohorts"]),
    "synth-indicators": ("synth", ["indicators"]),
    "synth-classify": ("synth", ["classify"]),
    "synth-classify-variant": ("synth", ["classify", "--raw", "--focus-mode", "annual",
                                         "--threshold-rule", "strict"]),
    "synth-overlay-csv": ("synth", ["overlay"]),
    "synth-overlay-json": ("synth", ["overlay", "--map-format", "json", "--color-metric",
                                     "p_stay", "--raw"]),
    # non-ratio focus means and pooled p_stay with a different last entry year
    "synth-overlay-annual": ("synth", ["overlay", "--focus-mode", "annual", "--window", "3",
                                       "--raw"]),
    "synth-compare": ("synth", ["compare", "--topic-b", "beta"]),
    "synth-compare-pooled": ("synth", ["compare", "--topic-b", "beta", "--pooled-thresholds",
                                       "--raw"]),
    # side b is a second corpus whose classification is degenerate
    "synth-compare-bd2012": ("synth", ["compare", "--topic-b", "big data",
                                       "--corpus-b", str(FIXTURES / "bd2012" / "publications.jsonl"),
                                       "--careers-b", str(FIXTURES / "bd2012" / "careers.csv"),
                                       "--stay-denominator", "all", "--window", "3", "--raw"]),
    "text-validate-doc-types": ("text", ["validate", "--doc-types", "article,review",
                                         "--terms", TERMS]),
    "text-cohorts-terms-doc-types": ("text", ["cohorts", "--terms", TERMS,
                                              "--doc-types", "article,review,proceedings"]),
    "text-indicators-terms": ("text", ["indicators", "--terms", TERMS]),
    # delineation of topic a, and both topics indexed from one corpus
    "text-compare-terms": ("text", ["compare", "--topic-b", "beta", "--terms", TERMS]),
}


def run_case(name: str, synth_base: pathlib.Path, out: pathlib.Path) -> dict[str, str]:
    corpus, argv = CASES[name]
    code = main([argv[0], *_inputs(corpus, synth_base), *argv[1:], "--out", str(out)])
    assert code == 0, name
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


# Recorded from the release before the single topic index refactor.
GOLDEN: dict[str, dict[str, str]] = {
    "bd2012-cohorts": {
        "cohorts.csv": "6a575107007ae31a252f1126c75808ca08a4de170e4824ab059ec8afc19bca40",
    },
    "bd2012-compare": {
        "a_bands.csv": "c65731c9147977a2cb1ea6f41736a219571d48af8a3a251ce7ed204c52223598",
        "a_cohorts.csv": "148d7cc6f47f6bde933ecc1554ebbeaf9ec141bdbb63f5838a7acb9ce8c08a21",
        "a_indicators.csv": "583d730f0697e5916db2714844274de823ee495f96888c203f5920cd55054671",
        "b_bands.csv": "c65731c9147977a2cb1ea6f41736a219571d48af8a3a251ce7ed204c52223598",
        "b_cohorts.csv": "148d7cc6f47f6bde933ecc1554ebbeaf9ec141bdbb63f5838a7acb9ce8c08a21",
        "b_indicators.csv": "583d730f0697e5916db2714844274de823ee495f96888c203f5920cd55054671",
        "diff_bands.csv": "62ed3e7bebaea588470d57a3f7d3aa99021fce8229e0335cb1b0b897dcb6ba73",
        "diff_cohorts.csv": "bf1e82e9007bf2cacbedbb38d18349b2f1901ed5346373315a47f93de481b756",
        "diff_indicators.csv": "482f35c5419a3c5c01538c36a194a1e4398fd9632ed6826fd2c645d05954617d",
        "diff_quadrant_summary.csv": "d1021c4a6d116914bbd8b7e82e5be6cde47a8d91862be23d1322357bbfeb3855",
        "summary.csv": "7faf6b5c83aaeea57fe3c96a6bc76674b63c328482fd14890beb87e3b26266da",
    },
    "bd2012-compare-pooled": {
        "a_bands.csv": "c65731c9147977a2cb1ea6f41736a219571d48af8a3a251ce7ed204c52223598",
        "a_cohorts.csv": "148d7cc6f47f6bde933ecc1554ebbeaf9ec141bdbb63f5838a7acb9ce8c08a21",
        "a_indicators.csv": "583d730f0697e5916db2714844274de823ee495f96888c203f5920cd55054671",
        "b_bands.csv": "c65731c9147977a2cb1ea6f41736a219571d48af8a3a251ce7ed204c52223598",
        "b_cohorts.csv": "148d7cc6f47f6bde933ecc1554ebbeaf9ec141bdbb63f5838a7acb9ce8c08a21",
        "b_indicators.csv": "583d730f0697e5916db2714844274de823ee495f96888c203f5920cd55054671",
        "diff_bands.csv": "62ed3e7bebaea588470d57a3f7d3aa99021fce8229e0335cb1b0b897dcb6ba73",
        "diff_cohorts.csv": "bf1e82e9007bf2cacbedbb38d18349b2f1901ed5346373315a47f93de481b756",
        "diff_indicators.csv": "482f35c5419a3c5c01538c36a194a1e4398fd9632ed6826fd2c645d05954617d",
        "diff_quadrant_summary.csv": "d1021c4a6d116914bbd8b7e82e5be6cde47a8d91862be23d1322357bbfeb3855",
        "summary.csv": "7faf6b5c83aaeea57fe3c96a6bc76674b63c328482fd14890beb87e3b26266da",
    },
    "bd2012-indicators": {
        "bands.csv": "c65731c9147977a2cb1ea6f41736a219571d48af8a3a251ce7ed204c52223598",
        "cohorts.csv": "6a575107007ae31a252f1126c75808ca08a4de170e4824ab059ec8afc19bca40",
        "indicators.csv": "583d730f0697e5916db2714844274de823ee495f96888c203f5920cd55054671",
    },
    "bd2012-indicators-variant": {
        "bands.csv": "f5e29a0935236c781441b5cc575791f265cf285d7d14d4079099524ac069b254",
        "cohorts.csv": "2292cafa27484c43f52ade7c86b4a79734d740e3cf9cf57e4d25bbcf017bff6e",
        "indicators.csv": "9a5b4f5aed4b4ab8848b31b176dcddc210d097b3d2fc46e1097756e0c7bcd41f",
    },
    "synth-classify": {
        "quadrant_authors.csv": "4a86ff841b7f4fa4fbc69c4f9d5240bf84416c3f212e499b24a6137fd028a406",
        "quadrant_summary.csv": "061358eaba75e858910743f66d3731f7afd629d7f86ffc07b3d015b55f7451fa",
        "thresholds.json": "b79ec28a507c3de4e397c4e681a92b078b4d3b8be9b9b595d6d7e8e10d47cec7",
    },
    "synth-classify-variant": {
        "quadrant_authors.csv": "d5305e5ad9a58bcdbe40f65444e1bf06e906f2b6cf99d425491c645a977d16d4",
        "quadrant_summary.csv": "b6f3d81a9de2f460777e33b43bee85cd9c0e9e6f29a38f506b45bd10b6b2d6cf",
        "thresholds.json": "f551cb65f140ea2a866729247adcd0621bc7324305db01fa95cfd9f9590334b6",
    },
    "synth-cohorts": {
        "cohorts.csv": "9720cc0797102d4b60dceb3f53826f762c083599a1cff0fa1713698473209ac8",
    },
    "synth-compare": {
        "a_bands.csv": "1d68a8a6e6d831503b0c4ad1ded86f1ebf46ee78cee5179638909e34942ac2e8",
        "a_cohorts.csv": "a89b72a67ae450fbc02df4abe53bdbabf3c4c437dab39cb03fb07b257ae1fe00",
        "a_indicators.csv": "d34235e4aac55292041de84f1fbe92554bf105750ff02c0a7fd9b47b40983534",
        "a_quadrant_authors.csv": "4a86ff841b7f4fa4fbc69c4f9d5240bf84416c3f212e499b24a6137fd028a406",
        "a_quadrant_summary.csv": "061358eaba75e858910743f66d3731f7afd629d7f86ffc07b3d015b55f7451fa",
        "a_thresholds.json": "b79ec28a507c3de4e397c4e681a92b078b4d3b8be9b9b595d6d7e8e10d47cec7",
        "b_bands.csv": "b2c19663bcbce093025c7110cb5694e13068760dfa4308c830e3d066839e3ec4",
        "b_cohorts.csv": "7c79e7a88392aef12b8d8cef00a3bd03bc6f2e12f9955f0bbb54c17fd9466b0a",
        "b_indicators.csv": "1892c69675af99e149594a53b773b8caf0532161b22ca26f7ca5a2325b070400",
        "b_quadrant_authors.csv": "89b3b1919783b546af25a0d93d80405deab7f3899918a899c47243e99e1315ba",
        "b_quadrant_summary.csv": "c25101ad794d34d23b21b65644a54c5d071f82653827e503dcb2a08461d753ec",
        "b_thresholds.json": "5fc42bfd51ecbd1c519fae514ea6a8febf7df717ec3872d65d98e589c9b82430",
        "diff_bands.csv": "98f10e288a930c9cc96d8bd2bc65feeb088d4588b0e375220582ab81a1ea882a",
        "diff_cohorts.csv": "f1a4d21f9bd6a3b4495c7fb4ada5853165775c6568b2ff408e46cbcb49d0fcca",
        "diff_indicators.csv": "32a6bb5e97b8a5a744a37fe3b4ffcc23dee2e30b702548550638ae0489a39654",
        "diff_quadrant_summary.csv": "5d82830f1dce6afca900fb0433c304507b13951af52f72faf559f65a3f38ada3",
        "summary.csv": "22b42006f33a2fa5052d74ebdd89169fbaae09fc2fb8fa6004f4776f8d10e745",
    },
    "synth-compare-pooled": {
        "a_bands.csv": "e7e90ca634e953329425b2797f6ab47bc98ffa9740ad08339d290af6e3962ecc",
        "a_cohorts.csv": "ec8cfe29fa4810696ff9b1f140130aef9c76bb2de724147da4055365bb2244cd",
        "a_indicators.csv": "6868547771409614dc37be590fbb77d192b7d4b30a066c27711a65076ee63b25",
        "a_quadrant_authors.csv": "9850ed8546475a751e10b5ba58d56282503d51489a6e05fbd78587d7698924f4",
        "a_quadrant_summary.csv": "2a192783e0caf26529884032314a2a480787e382728becdcc162c1aa5619b723",
        "a_thresholds.json": "5fc42bfd51ecbd1c519fae514ea6a8febf7df717ec3872d65d98e589c9b82430",
        "b_bands.csv": "474f5c8192b8ae894b375162499f0ee04681bf84cb8c7362ea7765e33692c88c",
        "b_cohorts.csv": "bdb32429e1b871f200193763050ffca66e2cd542052b1efb73f70bf374ba4963",
        "b_indicators.csv": "8905eb4741269a298edbd4fafc87ae327e0e4ca88b64460a7626bbf4cd2fb672",
        "b_quadrant_authors.csv": "5237301c349efd7df0c22b007bf92f967300bc0dc91413cb56c1054c3402ff31",
        "b_quadrant_summary.csv": "65befaa8d7aaa3f602e1a46dbee23860e9a9b4d14f9e14644bb63cf4b3d04934",
        "b_thresholds.json": "5fc42bfd51ecbd1c519fae514ea6a8febf7df717ec3872d65d98e589c9b82430",
        "diff_bands.csv": "98f10e288a930c9cc96d8bd2bc65feeb088d4588b0e375220582ab81a1ea882a",
        "diff_cohorts.csv": "f1a4d21f9bd6a3b4495c7fb4ada5853165775c6568b2ff408e46cbcb49d0fcca",
        "diff_indicators.csv": "32a6bb5e97b8a5a744a37fe3b4ffcc23dee2e30b702548550638ae0489a39654",
        "diff_quadrant_summary.csv": "c206c1f901324423c100215579007e44c062b65c1f27a97163dca44829b4f2ea",
        "summary.csv": "22b42006f33a2fa5052d74ebdd89169fbaae09fc2fb8fa6004f4776f8d10e745",
    },
    # Recorded from the release before the single-column-list report refactor.
    "synth-compare-bd2012": {
        "a_bands.csv": "e7e90ca634e953329425b2797f6ab47bc98ffa9740ad08339d290af6e3962ecc",
        "a_cohorts.csv": "ce010ea3426d35459d9bee8df323d3a77687e7c79c51f0f262702011f4b6e99c",
        "a_indicators.csv": "6868547771409614dc37be590fbb77d192b7d4b30a066c27711a65076ee63b25",
        "a_quadrant_authors.csv": "003792a5a8ef6224df9061efb51029ed5ebd77ccb06aa9dc27d07566213551ad",
        "a_quadrant_summary.csv": "b183afdfd230cad61964c84a2069b9ae53720141f8451000213b79962479d4e6",
        "a_thresholds.json": "b79ec28a507c3de4e397c4e681a92b078b4d3b8be9b9b595d6d7e8e10d47cec7",
        "b_bands.csv": "f5e29a0935236c781441b5cc575791f265cf285d7d14d4079099524ac069b254",
        "b_cohorts.csv": "007d110f9f43ef360ddf713a504f25372e5db7de3ea743235980db4589f15d67",
        "b_indicators.csv": "9a5b4f5aed4b4ab8848b31b176dcddc210d097b3d2fc46e1097756e0c7bcd41f",
        "diff_bands.csv": "60f325a46f8c13d5e7160362b0cccee1a2d29e1d0ff2fd986ddfed0313675f83",
        "diff_cohorts.csv": "f11b5cac04596047991cd055b4eef236dec2de2a4c52940fbfe8b9a1fcd311f6",
        "diff_indicators.csv": "7ade295eabba83d032c059c262732a0c042386f7856fc8545c838dbde20298f7",
        # header only: side b has no classification
        "diff_quadrant_summary.csv": "d1021c4a6d116914bbd8b7e82e5be6cde47a8d91862be23d1322357bbfeb3855",
        # carries classification_note_b
        "summary.csv": "259a058cee6fa46e5b4530cbb8e66f030d50b13ddd75a73addf7e3a940589519",
    },
    # Recorded from the release before the loader indexed topics while parsing.
    "text-cohorts-terms-doc-types": {
        "cohorts.csv": "d975a68915431c205e4888d101ba868b09084fb9ed3ac23b20ecf90b69c63d4c",
    },
    "text-compare-terms": {
        "a_bands.csv": "656b0325c38cb1d018ba7cb7fa5fad85ccfac662e65ae0c04472422c5983265d",
        "a_cohorts.csv": "f0f2bfccc3953014f0cbad7d563a317aca6ce9eb96060cc15657ffab673ddb93",
        "a_indicators.csv": "e5e590e6795d1332f0787cd8fdd9b5a2261af567b249d2dbd070c6d884b7a87b",
        "a_quadrant_authors.csv": "536d2b0bb572a8aa65e0eb6ba4d4f3c3664249d22df47594a06a20d038a1940c",
        "a_quadrant_summary.csv": "78310f6c345da2ab8a57f8f961c113a6ce34d91946f0a9d27e5fca51f324b83e",
        "a_thresholds.json": "b79ec28a507c3de4e397c4e681a92b078b4d3b8be9b9b595d6d7e8e10d47cec7",
        "b_bands.csv": "b2c19663bcbce093025c7110cb5694e13068760dfa4308c830e3d066839e3ec4",
        "b_cohorts.csv": "7c79e7a88392aef12b8d8cef00a3bd03bc6f2e12f9955f0bbb54c17fd9466b0a",
        "b_indicators.csv": "1892c69675af99e149594a53b773b8caf0532161b22ca26f7ca5a2325b070400",
        "b_quadrant_authors.csv": "89b3b1919783b546af25a0d93d80405deab7f3899918a899c47243e99e1315ba",
        "b_quadrant_summary.csv": "c25101ad794d34d23b21b65644a54c5d071f82653827e503dcb2a08461d753ec",
        "b_thresholds.json": "5fc42bfd51ecbd1c519fae514ea6a8febf7df717ec3872d65d98e589c9b82430",
        "diff_bands.csv": "88ceac3f467ad7a3ede29350274ceb4f016a00704da74874e26a0d9f8cd84478",
        "diff_cohorts.csv": "fe8963d5d80b745785f308ca5779c44373e3392a67571c1ade2aef448590219e",
        "diff_indicators.csv": "13cd0854d2436ca7e4518bc62aba8144650e64f73523f230a20e3b53998d05fb",
        "diff_quadrant_summary.csv": "674cecf23d91b64064af6da4c4db18fb0345507b6cfbf6b373a148027a9d17f5",
        "summary.csv": "5b2534fdbcc0b110683380341f516df32b9a072afb6687c14e7b762088f56fb3",
    },
    "text-indicators-terms": {
        "bands.csv": "656b0325c38cb1d018ba7cb7fa5fad85ccfac662e65ae0c04472422c5983265d",
        "cohorts.csv": "3e0b8189d8552930c2eab23a4d2c8bc85a18edb2e78cf54b935273e62e18339d",
        "indicators.csv": "e5e590e6795d1332f0787cd8fdd9b5a2261af567b249d2dbd070c6d884b7a87b",
    },
    "text-validate-doc-types": {
        "validation.txt": "4df0f8cd63079189892de3d6af7836d4b898a5ff3fa81319734a51a9bcddc11f",
    },
    "synth-indicators": {
        "bands.csv": "1d68a8a6e6d831503b0c4ad1ded86f1ebf46ee78cee5179638909e34942ac2e8",
        "cohorts.csv": "9720cc0797102d4b60dceb3f53826f762c083599a1cff0fa1713698473209ac8",
        "indicators.csv": "d34235e4aac55292041de84f1fbe92554bf105750ff02c0a7fd9b47b40983534",
    },
    "synth-overlay-csv": {
        "areas.csv": "56ae204ef2b49151d98674077eba9af983410ae752c31249723fdabd7bd8b07f",
        "map.csv": "b90bf236830c5ea12302c67a7ec33e3e06a893cc5d16d70b17cf348be2aeadd0",
        "overlay.csv": "98d5e87b845638129f94184bd9bc2d9e42c27bbffd7d10b81887f876d848fa38",
    },
    "synth-overlay-json": {
        "areas.csv": "8c5c98d69f9d82b8b3f224832d046df4da8f18ee94e6d7cb7baca12eb3a7f486",
        "map.json": "42ee1a8b53c2d1b0068fcacc6e14c44eec1b8a7939f020d56074aa85448a69a7",
        "overlay.csv": "bc2dcf1a5ef55aed927112011526b2119ef993423d695c160594c0184403c800",
    },
    # Recorded from the release before the accumulator classes were replaced by mean_exact.
    "synth-overlay-annual": {
        "areas.csv": "ad11141c1b10c85c77145e2b67da15827f9d0469bd8fd14fd57ed15dbbdcfaeb",
        "map.csv": "b90bf236830c5ea12302c67a7ec33e3e06a893cc5d16d70b17cf348be2aeadd0",
        "overlay.csv": "733fd1b8a8345d3df792ebb9e391d28bc300316dac0928f40038210c7ef1f1e8",
    },
}


@pytest.fixture(scope="module")
def synth_base(tmp_path_factory):
    return make_synth(tmp_path_factory.mktemp("golden_synth"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden_digests(name, synth_base, tmp_path, monkeypatch):
    monkeypatch.delenv("COMMUNITYLENS_CONFIG", raising=False)
    assert run_case(name, synth_base, tmp_path / "run") == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        base = make_synth(pathlib.Path(tmp) / "synth")
        digests = {
            name: run_case(name, base, pathlib.Path(tmp) / name) for name in sorted(CASES)
        }
    json.dump(digests, sys.stdout, indent=4)
    print()
