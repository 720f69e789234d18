"""PhotonBench: the repo's end-to-end, layer-attributed benchmark.

Four workloads, eight bounded end-to-end metrics (plus the failed /
attempted operation count) and ~70 per-layer metrics, all declared in
the root ``BENCHMARK.json``.  Every layer is measured *from outside*,
by timing calls into its public functions from this package; nothing
under ``src/`` knows the benchmark exists.  See ``README.md`` here for
the metric glossary, the layer -> end-to-end map and how to run and
compare records.

    python -m photonbench                    # every workload, both passes
    python -m photonbench --smoke            # tiny sizes, < 60 s
    python -m photonbench compare A.json B.json
"""

#: version of the record layout written by ``python -m photonbench``
SCHEMA_VERSION = 1
