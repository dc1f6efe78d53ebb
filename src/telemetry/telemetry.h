// The telemetry subsystem's front door: one object that owns every sink.
//
// A TelemetrySession bundles an EventRecorder (raw event array, Chrome trace
// source), a LatencyAccountant (per-cpu latency histograms) and, optionally,
// the TelemetryStream behind a single TraceSink, and writes the report
// artifacts — a /proc/schedstat-style text report, a Perfetto-loadable trace
// JSON, and the stream's summary and Gantt spans — into a directory.
//
//   TelemetrySession telemetry(topo.n_cores());
//   telemetry.AttachStream(TelemetryStream::ForTopology(topo), "out/telemetry", "fig2_");
//   Simulator sim(topo, sim_opts, telemetry.sink());
//   ... run ...
//   telemetry.WriteReports("out/telemetry", sim.sched(), sim.Now(), "fig2_");
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "src/telemetry/latency.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"

namespace wcores {

class Scheduler;

class TelemetrySession {
 public:
  explicit TelemetrySession(int n_cpus, size_t recorder_capacity = 1 << 22)
      : latency_(n_cpus), recorder_(recorder_capacity) {
    multi_.Add(&latency_);
    multi_.Add(&recorder_);
  }

  // The sink to hand to Scheduler / Simulator. Valid for this object's
  // lifetime.
  TraceSink* sink() { return &multi_; }

  LatencyAccountant& latency() { return latency_; }
  const LatencyAccountant& latency() const { return latency_; }
  EventRecorder& recorder() { return recorder_; }
  const EventRecorder& recorder() const { return recorder_; }

  // Attaches the bounded-memory streaming pipeline (one-pass aggregates +
  // online starvation detector) to this session's sink fan-out. Call before
  // handing sink() to the simulator. Unless `opts` already set a snapshot
  // provider, confirmed starvation findings carry this session's
  // LatencySnapshot as their digest — the same evidence the sanity checker
  // attaches to its violations. With a non-empty `dir` (created if missing),
  // completed Gantt spans stream to `<dir>/<label>spans.csv` as the run
  // goes; WriteReports with the same dir and label closes that file with the
  // other reports.
  TelemetryStream& AttachStream(TelemetryStream::Options opts, const std::string& dir = "",
                                const std::string& label = "");
  // Null until AttachStream is called.
  TelemetryStream* stream() { return stream_.get(); }
  const TelemetryStream* stream() const { return stream_.get(); }

  // Renders the schedstat report for `sched` at virtual time `now`.
  std::string Schedstat(const Scheduler& sched, Time now) const;

  // One-line machine-wide latency digest, e.g. for attaching to sanity-checker
  // violations:
  //   "rq_wait p50=12.0us p99=480.0us max=1.2ms (n=5321) wakeup p99=..."
  std::string LatencySnapshot() const;

  // Writes `<label>schedstat.txt` and `<label>trace.json` under `dir`
  // (created, with parents, if missing). With a stream attached, it also
  // closes the pipeline at `now`, writes `<label>stream.json` (the one-line
  // summary) and closes the spans file AttachStream opened. Returns false if
  // any file could not be written; `failed_path` (optional) gets its path.
  bool WriteReports(const std::string& dir, const Scheduler& sched, Time now,
                    const std::string& label = "", std::string* failed_path = nullptr);

 private:
  LatencyAccountant latency_;
  EventRecorder recorder_;
  std::ofstream spans_;  // The stream's span_out, when AttachStream got a dir.
  std::unique_ptr<TelemetryStream> stream_;
  MultiSink multi_;
};

}  // namespace wcores

#endif  // SRC_TELEMETRY_TELEMETRY_H_
