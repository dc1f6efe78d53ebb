#include "src/telemetry/telemetry.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/core/scheduler.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/schedstat.h"

namespace wcores {

namespace {

void AppendDigest(std::string* out, const char* name, const Summary& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s p50=%.1fus p99=%.1fus max=%s n=%llu", name,
                s.Quantile(0.50) / 1000.0, s.Quantile(0.99) / 1000.0,
                FormatTime(static_cast<Time>(s.Max())).c_str(),
                static_cast<unsigned long long>(s.Count()));
  *out += buf;
}

bool WriteTextFile(const std::filesystem::path& path, const std::string& text,
                   std::string* failed_path) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    if (failed_path != nullptr) {
      *failed_path = path.string();
    }
    return false;
  }
  return true;
}

}  // namespace

std::string TelemetrySession::Schedstat(const Scheduler& sched, Time now) const {
  return SchedstatReport(sched, latency_, now);
}

TelemetryStream& TelemetrySession::AttachStream(TelemetryStream::Options opts,
                                                const std::string& dir, const std::string& label) {
  if (opts.n_cpus == 0) {
    opts.n_cpus = latency_.n_cpus();
  }
  if (!opts.snapshot) {
    opts.snapshot = [this] { return LatencySnapshot(); };
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // A failure shows in WriteReports.
    spans_.open(std::filesystem::path(dir) / (label + "spans.csv"),
                std::ios::binary | std::ios::trunc);
    opts.span_out = &spans_;
  }
  stream_ = std::make_unique<TelemetryStream>(std::move(opts));
  multi_.Add(stream_.get());
  return *stream_;
}

std::string TelemetrySession::LatencySnapshot() const {
  LatencyDistributions m = latency_.Machine();
  std::string out;
  AppendDigest(&out, "rq_wait", m.rq_wait);
  out += " | ";
  AppendDigest(&out, "wakeup", m.wakeup_latency);
  out += " | ";
  AppendDigest(&out, "timeslice", m.timeslice);
  return out;
}

bool TelemetrySession::WriteReports(const std::string& dir, const Scheduler& sched, Time now,
                                    const std::string& label, std::string* failed_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // A failure shows as the first failed write.
  std::filesystem::path base(dir);
  if (!WriteTextFile(base / (label + "schedstat.txt"), Schedstat(sched, now), failed_path)) {
    return false;
  }
  std::string json = ChromeTraceJson(recorder_.events(), sched.topology().n_cores());
  if (!WriteTextFile(base / (label + "trace.json"), json, failed_path)) {
    return false;
  }
  if (stream_ == nullptr) {
    return true;
  }
  stream_->Finish(now);  // Flushes the last span window.
  if (!WriteTextFile(base / (label + "stream.json"), stream_->SummaryJson() + "\n",
                     failed_path)) {
    return false;
  }
  // The spans file AttachStream opened, if any (an open that failed left it failed).
  if (spans_.is_open() || spans_.fail()) {
    spans_.close();
    if (!spans_) {
      if (failed_path != nullptr) {
        *failed_path = (base / (label + "spans.csv")).string();
      }
      return false;
    }
  }
  return true;
}

}  // namespace wcores
