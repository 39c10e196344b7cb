// Umbrella header for the telemetry subsystem: tracing spans
// (GLIMPSE_SPAN), the metrics registry, and the JSONL exporters. See
// DESIGN.md §8 for the architecture and overhead model.
//
// Quick use:
//   GLIMPSE_TRACE=trace.jsonl GLIMPSE_METRICS=metrics.jsonl ./build/bench/fig7_invalid_configs
//   python3 tools/trace_stitch.py trace.jsonl -o trace.json
// then load trace.json in chrome://tracing (or ui.perfetto.dev).
#pragma once

#include "common/telemetry/export.hpp"         // IWYU pragma: export
#include "common/telemetry/metrics.hpp"        // IWYU pragma: export
#include "common/telemetry/span.hpp"           // IWYU pragma: export
#include "common/telemetry/trace_context.hpp"  // IWYU pragma: export
