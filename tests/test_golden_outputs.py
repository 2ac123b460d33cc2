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
# at both seeds, and db-interval-zero at seed 20231.
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
        "11f278a12aa127457d9a1ce0c848e218a5a18dcdd3c0a556f15ee31ed1a69d9d",
    "macro-contended@20231":
        "f172a02f82debb88c8b7297005ee6e669482691ea9349ec796d1e5da94305eb9",
    "macro-integer-ms@0":
        "039e170dea3c5c4c11055136417a19b3482067366c75a16c14c35ee6bc6f610d",
    "macro-integer-ms@20231":
        "d1559e8a9738f4fa6e145d4c59d397adafe28942aa2df28dcb63d404ab9e1126",
    "macro-non-dyadic@0":
        "4ff35684fd93846f72318e26e9680afd0da7d3fdcdfd1aad5ee16eb1ccaa85e8",
    "macro-non-dyadic@20231":
        "54ae07d63546f65632d411267177629f16a985cf347286f780e6aeaeccdb7ec4",
    "macro-prediction@0":
        "ba5a3a9e943a3e5a652b366858c3e012f89f7e3cc7ac224e5cd4b415739ef8d5",
    "macro-prediction@20231":
        "d7ee073b02834fb3ef726fadb0e1497d377551bc1ea93135b420c5bce7d4799b",
    "macro-short-keepalive@0":
        "9008e86cdd33cd39eabb6e617d00b840f0c78a0aa819097261a71bb20d13c424",
    "macro-short-keepalive@20231":
        "13069bb4025c55e218638e5779ff03e0d966cd8f7d459784c05c4b3cf97a0afd",
    "macro-unserialized-expand@0":
        "3cae08d6ff33cb61bab1dc65f32ad1eac612446dad0d2514941669abbeccf781",
    "macro-unserialized-expand@20231":
        "b3638913e2dbe3b3f600c126fef02d494eb067b129f9736da49c16b669aac025",
    "serverless_latency-1@0":
        "149ad259f7277e5961e7442c79d26b65410953c9d8d1040939f0d84861df818c",
    "serverless_latency-1@20231":
        "c8a8b3278360e697d26cf04932d9280ab97aaabb3fa5928e7baa92fd07afd42c",
    "serverless_latency-65@0":
        "ece41bc28fab145b70ef0ce8ebf8e07ec6b88b062e8e5de746f17bf8191c072c",
    "serverless_latency-65@20231":
        "296fe5c944c619b7f7e4236ba50d1231d0029f99995e6f51ac5addd259fe3db5",
    "serverless_latency-8@0":
        "f6be96af120ac49a1d60bf13ae9e173777f78d7c2247d17e1bc396b7c68c462b",
    "serverless_latency-8@20231":
        "4a57f023952646681ad106665471b3adaa541e698b7f90b1051d7e4d1ff9b56a",
    "serverless_memory-1@0":
        "71ffcd722471d5b4debd34f5db60d2ebe164b4a81981c29e36c99e8d582cc01a",
    "serverless_memory-1@20231":
        "e99879b9289ddbc4bcfa6ab52b2e8c56595c35a7fc42ba30f579e6d5724e72e8",
    "serverless_memory-16-unserialized-expand@0":
        "5f4a415004ffe3b8a08eabdbdf63df6f18375f433306b397d97a5fa4e9cfacc2",
    "serverless_memory-16-unserialized-expand@20231":
        "1c216f7122c0b1180dd3e1c3932b889ebc8775ffffc7a14dfe1e7dc844fe58c2",
    "serverless_memory-65@0":
        "2dac39aa09875bf6772405847b5cdeeef013439679e8382730a3ea96c70051c3",
    "serverless_memory-65@20231":
        "e5fafd8fb24c572219fc828e5f004eb6dcd35c33f2d78690e2eb36c27e1538d8",
    "serverless_memory-8@0":
        "6a117fd1cc7a11d2062340eae0ad02741e1389defe0b33fa8878e4c4311fe4fd",
    "serverless_memory-8@20231":
        "c23d5ea25284506e88fd38dcacb6c667fa50dcd02c10ce47b15f214895f1d8ea",
    "serverless_throughput-1@0":
        "bdf6fefde6ce799b9c10215758880911c6f2bb24eec0d746f03a6753b92fd78f",
    "serverless_throughput-1@20231":
        "ec863f324a175c0aced1840247f830fb283476b3817f81ca9ba9f4aa6739413f",
    "serverless_throughput-65@0":
        "17aaa274f5249513f9c73b091a2bb7754ac5aa501f1d0f8777eaabcb4b986bcf",
    "serverless_throughput-65@20231":
        "c54c7a098048b121dfdcdf889175570a9494a134911f50cd5cd2316253461a37",
    "serverless_throughput-8@0":
        "61dc5647be1df038146e069d238cef910b566e7b2a0c1ee02b36a7d6bdbd4cf0",
    "serverless_throughput-8@20231":
        "37ff0a856fd8694ce7c5250a5d49c4fbcddb1e8e2327f525e2ee00962249e09a",
    "serverless_throughput-8-on-1-worker@0":
        "18e20fbde724cc1fb2a74065d4426a35703c44bcba3ee038882f6a477fc1f738",
    "serverless_throughput-8-on-1-worker@20231":
        "bfcdb9a5aa158c47eb3a5919708d9b54941b2d2800e4c0c47ca1cfaa8f3c9dcf",
    "serverless_throughput-8-on-3-workers@0":
        "8c5885182969c3259755142ed7499208b9627dae2d72e40c9e96505524e9bcfd",
    "serverless_throughput-8-on-3-workers@20231":
        "986347a78bc94b538bcde63046a5d3dab925e3dfaa02f28fc153eb96662bad2e",
    "serverless_throughput-expand-equals-tail@0":
        "31a272f26944587fab665cca0594b37eada4eff6a61d204ecde4727f599abe0b",
    "serverless_throughput-expand-equals-tail@20231":
        "3fb2dfa4508e129ffd02fca8ef34da6d1eac7fe2268e7388a365bc89347dc8f2",
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
