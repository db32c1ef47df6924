// telemetry.hpp — umbrella header for the telemetry subsystem: the
// metric registry (counters / gauges / histograms / time series), the
// event path (one Event record, emit(), the flight recorder and the
// SpanLog with its Chrome exporter), and the event-loop self-profiler.
// See docs/TELEMETRY.md for naming conventions, category masks, and how
// to view traces in Chrome.
#pragma once

#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
