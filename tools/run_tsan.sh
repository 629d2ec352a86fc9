#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer and runs the parallel-layer
# and serving-runtime tests: the multi-stream cluster's replica workers
# (including a one-stream cluster fed by two concurrent producers while
# health snapshots are read, and threshold hot-swaps installed while a
# stream serves), the replica failure domain (watchdog, fault schedules,
# failover / chaos suites), the quantized int8 rungs (thread-count
# bit-identity plus the int8 GEMM kernels on every band and the q8 conv
# reference), the fused steering/VBP batches of a mixed-rung cluster, and
# the VBP relevance chain and SSIM score on per-thread arena scratch (which
# cluster replicas run concurrently).
# A ctest -R pattern passed as $1 replaces the default one.
#
# Usage:
#   tools/run_tsan.sh              # run the default subset under TSan
#   tools/run_tsan.sh 'Detector'   # run tests matching 'Detector' instead
#
# Uses a dedicated build tree (build-tsan) so the regular build stays warm.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
PATTERN="${1:-parallel_test|ParallelFor|GemmParallel|SsimParallel|DetectorParallel|DatasetParallel|HotSwap|ClusterFixture|FailoverFixture|ReplicaWatchdog|ReplicaFaultSchedule|QuantDifferentialFixture|GemmInt8|QuantGemmKernels|QuantizeU8|QuantConvReference|FusedCompute|RelevanceSsimOracle}"

cmake -B "$BUILD_DIR" -S . -DSALNOV_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# second_deadlock_stack gives both stacks on lock-order reports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$PATTERN"
