"""Golden outputs: ``cli.main`` over a fixed matrix of configs and seeds.

Each case pins the sha256 of the ``summary.json`` bytes followed by the
``metrics.csv`` bytes. The matrix covers queueing on the worker pool and
on the EPC-expand lock, the warm pool with and without prediction, an
unserialized expand, bursts of several sizes and database runs on both
sides of the copy-on-write window. The database cases also cover the
boundaries of the request stretches that no page copy can touch, each one
floor division on the whole-nanosecond clock: long non-dyadic runs, a
fork at time zero, and a fork, window or run that ends exactly where a
request ends. The serverless cases also cover events that land at one
time: a single worker, integer-ms costs and an EPC-expand step as long
as its tail. So a change to the event loop, the request plans, the
database loop or the output writer that alters any simulated number or
any output byte fails here.

Regenerate the table (only for a deliberate output change, which
CHANGES.md must then name) with::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import sys

import pytest

from enclavesim.cli import main

ALL_MODELS = "native, cc_cold, cc_warm, teemate"

MACRO = ("[serverless_macro]\nmodel = {models}\nworkload = {workload}\n"
         "rate_per_s = {rate}\nduration_s = {duration}\nseed = 0\n")
BURST = ("[{scenario}]\nmodel = " + ALL_MODELS + "\nworkload = all\n"
         "n_requests = {n}\nseed = 0\n")
DATABASE = ("[database]\nmodel = strawman, teemate\ndb_mib = {db_mib}\n"
            "write_ratio = {write_ratio}\nsnapshot_interval_s = {interval}\n"
            "duration_s = {duration}\nseed = 0\n")

CASES = {
    # 4 requests/s backs up cc_cold's 8 workers and the expand lock.
    "macro-contended": MACRO.format(models=ALL_MODELS, workload="crypto-aes",
                                    rate=4, duration=150),
    "macro-short-keepalive": MACRO.format(
        models=ALL_MODELS, workload="dynamic-html", rate=1.5,
        duration=90) + "warm_keepalive_s = 1.5\nworkers = 3\n",
    "macro-prediction": MACRO.format(
        models="cc_warm, teemate, native", workload="regexp-dna", rate=3,
        duration=40) + "prediction = true\n",
    "macro-unserialized-expand": MACRO.format(
        models="teemate, cc_cold", workload="sleep", rate=3,
        duration=40) + "epc_alloc_serialized = false\nworkers = 2\n",
    "macro-non-dyadic": MACRO.format(
        models=ALL_MODELS, workload="uploader", rate=2.5,
        duration=30) + "t_alias = 2.41\nt_epc_alloc_per_page = 0.1031\n"
                       "t_exec.uploader = 1234.567\n",
    "db-write0": DATABASE.format(db_mib=512, write_ratio=0, interval=2,
                                 duration=60),
    "db-write0.3": DATABASE.format(db_mib=512, write_ratio=0.3, interval=2,
                                   duration=60),
    "db-write1": DATABASE.format(db_mib=64, write_ratio=1, interval=1,
                                 duration=20),
    "db-non-dyadic": DATABASE.format(db_mib=96, write_ratio=0.45,
                                     interval=1.3, duration=25)
    + "t_db_exec = 0.3\nt_cow_copy = 0.07\n",
    "db-interval-past-duration": DATABASE.format(
        db_mib=32, write_ratio=0.5, interval=100, duration=60),
    # 0.7 ms is not dyadic: over 300 s the running sums cross many binades.
    "db-non-dyadic-300s": DATABASE.format(db_mib=128, write_ratio=0.3,
                                          interval=2, duration=300)
    + "t_db_exec = 0.7\n",
    "db-interval-zero": DATABASE.format(db_mib=64, write_ratio=0.4,
                                        interval=0, duration=20),
    # The shared-enclave fork ends at 1025 ms, exactly when the request
    # that started at 984 ms (24 x 41 ms) finishes.
    "db-fork-ends-on-request": DATABASE.format(db_mib=64, write_ratio=0.5,
                                               interval=1, duration=30)
    + "t_db_exec = 41\nsnapshot_write_mib_per_s = 128\n",
    # Fork start, fork end, window end and end all fall on request
    # boundaries of both models.
    "db-window-ends-on-request": DATABASE.format(db_mib=64, write_ratio=0.5,
                                                 interval=1, duration=30)
    + "t_db_exec = 0.25\nsnapshot_write_mib_per_s = 128\n",
}
for _scenario in ("serverless_throughput", "serverless_memory",
                  "serverless_latency"):
    for _n in (1, 8, 65):
        CASES[f"{_scenario}-{_n}"] = BURST.format(scenario=_scenario, n=_n)
CASES["serverless_throughput-8-on-3-workers"] = \
    BURST.format(scenario="serverless_throughput", n=8) + "workers = 3\n"
CASES["serverless_memory-16-unserialized-expand"] = \
    BURST.format(scenario="serverless_memory", n=16) \
    + "epc_alloc_serialized = false\n"
# Events that land at one time: every grant from the single worker falls
# on the finish that frees it, while later arrivals still wait at 0.
CASES["serverless_throughput-8-on-1-worker"] = \
    BURST.format(scenario="serverless_throughput", n=8) + "workers = 1\n"
# Integer-ms costs (alias 2.5 + 0.5; expand 6400 x 0.0625 = 400 ms, as
# long as its tail, 100 + 300 ms): under lock contention a request's
# finish lands on the unlock of the request it granted the lock, and
# queued requests start on the finishes that free their workers. Poisson
# arrivals are random floats, so none lands on a finish; the serverless
# oracle test covers that tie with integer arrival times.
INTEGER_MS = ("t_container_create = 500\nt_enclave_create = 1000\n"
              "t_alias = 2.5\nt_tcs_op = 0.5\nt_epc_alloc_per_page = 0.0625\n"
              "t_instance_load_cold = 200\nt_instance_load_teemate = 100\n"
              "t_exec.sleep = 300\n")
CASES["macro-integer-ms"] = MACRO.format(
    models=ALL_MODELS, workload="sleep", rate=5, duration=40) + INTEGER_MS \
    + "workers = 3\nwarm_keepalive_s = 0.3\n"
# The same costs in a burst: the lock is granted at each unlock while the
# previous holder's finish lands on the next unlock.
CASES["serverless_throughput-expand-equals-tail"] = (
    "[serverless_throughput]\nmodel = " + ALL_MODELS + "\nworkload = sleep\n"
    "n_requests = 12\nseed = 0\nworkers = 5\n" + INTEGER_MS)

SEEDS = (0, 20231)

# Computed before the flat event loop, the RNG-free database tail and the
# one-pass CSV writer replaced the code they cover. The db-non-dyadic-300s,
# db-interval-zero, db-fork-ends-on-request, db-window-ends-on-request and
# serverless_memory-16-unserialized-expand entries were computed before
# the database's draw-free stretches were skipped in one step, and before
# the per-kind request plans and the once-per-tail CSV formatting replaced
# the code they cover. The macro-integer-ms,
# serverless_throughput-8-on-1-worker and
# serverless_throughput-expand-equals-tail entries were computed before
# arrivals left the event heap and grants began to run inline. The
# database clock then moved to whole nanoseconds, and the shared-enclave
# model stopped drawing before its copy-on-write window, which re-pinned
# 13 database entries once: db-interval-past-duration, db-non-dyadic,
# db-non-dyadic-300s, db-window-ends-on-request, db-write0.3 and db-write1
# at both seeds, and db-interval-zero at seed 20231. The serverless run
# then moved to the same clock, which re-pinned all 38 serverless entries
# once: metrics.csv kept every byte, every integer kept its value, and
# every float moved by under 1e-9 of itself, the rounding of each step to
# whole ns (half a ns of dynamic-html's 480.007 ms exec at most).
GOLDEN = {
    "db-fork-ends-on-request@0":
        "fc43d8d7122d84c5e276a9330289fe5f51712e23244c099564e22112e0b8ed37",
    "db-fork-ends-on-request@20231":
        "18244ba40777e5a43b4d0539ed2cac437282c0fbda79d0e4e4d2a87fad06282d",
    "db-interval-past-duration@0":
        "024f5a53b4c0330a1c8e6fd96cadcedc768f7e6659e0ba7aeb862eff5a47f2a1",
    "db-interval-past-duration@20231":
        "c4adfb2d68128e885788a9643a803280fa405fcf6c5d7cb0a7d96af3ad34672f",
    "db-interval-zero@0":
        "a69a25112243a663ed9d7b7cd6f50b8ef7d96e962676d7ac2e8c0e709a63fc17",
    "db-interval-zero@20231":
        "714af3cff07a458bdb159e9506d3285f234a24739a40785a1544b3e23233ebde",
    "db-non-dyadic@0":
        "6fb7b2abf1d556756857d7e6aef195485595eae4afcddb16453a3b61fd85d665",
    "db-non-dyadic@20231":
        "db6026e346219482ef25809f7bc09370ce31f45f03f2004d15124db55b41b4ae",
    "db-non-dyadic-300s@0":
        "464f1209df0bba96be9685ccafd0829d2400fe6810a2dcd8cf9678592acdc1e7",
    "db-non-dyadic-300s@20231":
        "c24653ed3ff55e88a5119ae300dc3c3b81440b1d0de910a334f32338e3dae345",
    "db-window-ends-on-request@0":
        "fabaf83feb36b6ac99c12f6507784e04b8a3d005296f8f45cc0ccc01ad93b522",
    "db-window-ends-on-request@20231":
        "8d8a4cf30fbb0a61ad5557ba4dbe1617e2352cc8c957728a03aac3b015094055",
    "db-write0@0":
        "d026637d3bcf4193f375b14823bd0c23616348696aa634f5ba5b75e7892022cf",
    "db-write0@20231":
        "9a5fe1b0d64928c657cd3986f5537d9de1bcfc4899d42477f577e296755328dd",
    "db-write0.3@0":
        "703c28044aad43c0fa79a5291329063374670b06074609a5ecebf2f24e11cafa",
    "db-write0.3@20231":
        "1503e24bd3ca0a2b2a0e5aeeeb05feca0d74cdc160cb37552c055e0298e67710",
    "db-write1@0":
        "a26984993a984b3b95548a0eea8803132a9172ddb75120403fc8082a832e23a6",
    "db-write1@20231":
        "a931d4de515183689243e2fb9127acca421f75f5db8fabfbb6bb4b9822c0a4fc",
    "macro-contended@0":
        "354d411bcf6a876a1619da4255deb2d64ea34646a338610dd054324d2f755c4f",
    "macro-contended@20231":
        "51987f5d05a3c7f5d4fb57ce7c44b116d9710c9fa487021c28fcc8290afeb37e",
    "macro-integer-ms@0":
        "5e5346a8a5ca24e4d4405becd0ed40e82829548edc7582c48dd39800ceaacb11",
    "macro-integer-ms@20231":
        "91d38da355eaa8e5ef5cd4e8e43a41ae6e31e190b40b917fb51f84a300595b81",
    "macro-non-dyadic@0":
        "c8685a5c1c7e1c304985d4e88852b2c2c39b8032ccef0215ffc47ff7d0f562ff",
    "macro-non-dyadic@20231":
        "8890402ccc550c2aac3d4116223e148f82b5d25cca8aacc995a08c99d0142f28",
    "macro-prediction@0":
        "471da6d1931cbc4b6dd5a6e2669829d03c177eed1eae533bc0cb5bb1131ac0cc",
    "macro-prediction@20231":
        "c0e074ec1f3fc70f395b7d7d18c5cc4354a4f9270e4e01698aa9ab9923839842",
    "macro-short-keepalive@0":
        "23f7075636f78a344879996e9213b7e361db1a14145f4dca8d3d1df2338e653c",
    "macro-short-keepalive@20231":
        "03e5a48e3bc9ca42adb13769bc0ee6d13b768c3b609bc9a1c44308b4c22f8aa5",
    "macro-unserialized-expand@0":
        "9679e41468a0e6b4dbc5d3ed5e6b222a555ce09dd15770f012db7f5203cfb4e6",
    "macro-unserialized-expand@20231":
        "1da974d47bdc5532295dffd1f7669847df1a272be85dc5eb0efc80ba5a7ab891",
    "serverless_latency-1@0":
        "f8d80323740d76a079b518435217ae0370a16444306e7c159fc7a4aa26ef03b0",
    "serverless_latency-1@20231":
        "78f27ca8b3ce8e87e374acc412d9dd5f9fa207b13494e99d325744c08694dafa",
    "serverless_latency-65@0":
        "f53a7a4bc8b80a8a475a9a06a4aecac6e6d3150c617b8b28065d5cfe391b7115",
    "serverless_latency-65@20231":
        "626d5f6c7a745802ecd95aff0a78c9091789183a1571bd6aa978578a8274124f",
    "serverless_latency-8@0":
        "8ce1693a0a7e1bc6302b2ad2841bbab413c5b943402f6ff0b6b8ddadf43bd73d",
    "serverless_latency-8@20231":
        "df0dd04a6a4300c50f20c561a0d9472e137d7ba9b017e7aabfa3c2d949e470ce",
    "serverless_memory-1@0":
        "0b22aee88006e8fbf6c9e22d5b36dfcce986e0051b8d58f98c1abb21fa8e1b4a",
    "serverless_memory-1@20231":
        "013bab05f4762c46734b5e3db2daf8f3788c5c89a47d3fa783b95647254a206a",
    "serverless_memory-16-unserialized-expand@0":
        "f4e3f9c93a27a18db082c2b5f9a1ef732a64bdfb9f37c42b35a7fe4f05b45248",
    "serverless_memory-16-unserialized-expand@20231":
        "5a2ecca4118db9ce5598103a4cd1aadc2ff3dc8b7a791f3af088476e009eb982",
    "serverless_memory-65@0":
        "5c4698a3b2dd7a638ab628ee905df2fcd192783f6d029382f6c402ace5c10237",
    "serverless_memory-65@20231":
        "e088eadd6f351aa31a13a38d73bcf708c01a288c88dba86e0b43faff586b54a9",
    "serverless_memory-8@0":
        "69e3f8ebeb4a13cf60317bac0b062aef8ecd7e7e19ea18aa692dcf87c9a18c99",
    "serverless_memory-8@20231":
        "0bce8cb904f186c17d56cfd3157902555c9a463c67b03300033d5ef19afed9bb",
    "serverless_throughput-1@0":
        "c711e4ce0cdee58f31649fc4d000b104e3336bf01d6728ec40c6c390afb6957a",
    "serverless_throughput-1@20231":
        "13758275b23f50723d46c4afa8d11399194cf1384178bd5501a17b11f5325982",
    "serverless_throughput-65@0":
        "11699fc5f56eb4c30289507359690fc9a1e7fd9102c908c66317e5ad491b702d",
    "serverless_throughput-65@20231":
        "a6dee4bdbcbb5d1707bb793b15270b2c26b36559966448ac743101c3b284e67a",
    "serverless_throughput-8@0":
        "f9ca37528d9b8436a1ff50f84332e41e3cba21e80e8f8f83e9681d364e777e87",
    "serverless_throughput-8@20231":
        "1eb4138d12bbaa64e20d0f210c8c7f1d880685a5edeeb48e9d0a9102547eb75c",
    "serverless_throughput-8-on-1-worker@0":
        "2a9958b5ef8bad2a03d62d6823c1e67692fd8548b200d8268813eff574927630",
    "serverless_throughput-8-on-1-worker@20231":
        "15093fc16b9913919906a35362a248344ee2d89074d1525e1b6f3ad130af4f89",
    "serverless_throughput-8-on-3-workers@0":
        "e17647d1e9244eddc9ebd7de0595553520b16d91320ac131a14cbc83b173449f",
    "serverless_throughput-8-on-3-workers@20231":
        "9db20e59bb3dfb1e6f2e71c29e350d7efe1fe022d8dd5cc5827c72cefe5bce0a",
    "serverless_throughput-expand-equals-tail@0":
        "e4ad5d11310bd04b7a6b2f60018d96b42220fb9ef0eda6b7a4f115db92cb98fa",
    "serverless_throughput-expand-equals-tail@20231":
        "5894645a1f6397d4c53b553d0e7b7320f9e1713059b0856acb55d54d3df865ac",
}


def output_digest(tmp_path, name, seed):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CASES[name])
    out = tmp_path / f"{name}-{seed}"
    assert main([str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    return hashlib.sha256((out / "summary.json").read_bytes()
                          + (out / "metrics.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(tmp_path, name, seed):
    assert output_digest(tmp_path, name, seed) == GOLDEN[f"{name}@{seed}"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for case_seed in SEEDS:
                digest = output_digest(pathlib.Path(scratch), case, case_seed)
                sys.stdout.write(f'    "{case}@{case_seed}":\n'
                                 f'        "{digest}",\n')
