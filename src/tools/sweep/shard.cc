#include "src/tools/sweep/shard.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "src/simkit/check.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/jsonl.h"
#include "src/tools/sweep/receipts.h"
#include "src/tools/sweep/sweep.h"

namespace wcores {

namespace {

// Advisory exclusive claim on one scenario, keyed by fingerprint. The open
// fd is held for the duration of the run; closing it (or dying) releases
// the lock.
int TryClaim(const std::filesystem::path& claims_dir, uint64_t fingerprint) {
  std::filesystem::path lock = claims_dir / (Hex16(fingerprint) + ".lock");
  int fd = ::open(lock.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return -1;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void ReleaseClaim(int fd) {
  if (fd >= 0) {
    ::close(fd);  // Drops the flock.
  }
}

// Receipt-store view for resume decisions, rebuilt from disk on demand.
struct DoneIndex {
  // name -> receipts (all fingerprints, all shards).
  std::map<std::string, std::vector<Receipt>> by_name;

  static DoneIndex Load(const std::string& dir) {
    DoneIndex index;
    ResultsStore store;
    std::string error;
    bool ok = LoadResultsStore(dir, &store, &error);
    WC_CHECK(ok, "shard runner cannot read its own results store");
    for (Receipt& r : store.receipts) {
      index.by_name[r.name].push_back(std::move(r));
    }
    return index;
  }

  // DONE iff >=1 fingerprint-matching receipt and all such receipts agree
  // on the determinism pair. `had_receipts` reports whether any receipt —
  // matching or stale — existed for the name (requeue accounting).
  bool Done(const std::string& name, uint64_t fingerprint, bool* had_receipts) const {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      *had_receipts = false;
      return false;
    }
    *had_receipts = true;
    const Receipt* first_match = nullptr;
    for (const Receipt& r : it->second) {
      if (r.fingerprint != fingerprint) {
        continue;  // Stale: the grid definition changed under the store.
      }
      if (first_match == nullptr) {
        first_match = &r;
      } else if (r.trace_hash != first_match->trace_hash ||
                 r.trace_events != first_match->trace_events) {
        return false;  // Conflicting receipts: force re-execution.
      }
    }
    return first_match != nullptr;
  }
};

}  // namespace

ShardReport RunShard(const std::vector<Scenario>& scenarios, const ShardOptions& options) {
  WC_CHECK(options.shard_count >= 1, "shard count must be >= 1");
  WC_CHECK(options.shard_index >= 0 && options.shard_index < options.shard_count,
           "shard index out of range");
  WC_CHECK(!options.results_dir.empty(), "shard runner needs a results dir");

  // Names key receipts and fingerprints key claims, so both must be unique
  // across the scenarios (ParseGridSpec rejects the repeated axis values
  // that would break this; this guards direct callers).
  CheckUniqueScenarioNames(scenarios);
  {
    std::set<uint64_t> fingerprints;
    for (const Scenario& s : scenarios) {
      WC_CHECK(fingerprints.insert(ScenarioFingerprint(s)).second,
               "fingerprint collision in shard run");
    }
  }

  std::filesystem::path results_dir(options.results_dir);
  std::filesystem::path claims_dir = results_dir / "claims";
  std::error_code ec;
  std::filesystem::create_directories(claims_dir, ec);
  WC_CHECK(!ec, "cannot create results/claims directories");

  ShardReport report;
  std::filesystem::path receipts_path =
      results_dir / ("shard-" + std::to_string(options.shard_index) + ".jsonl");
  report.receipts_path = receipts_path.string();

  // Self-repair: if a previous incarnation of this shard was killed
  // mid-append, truncate the dirty tail now so it never becomes interior
  // corruption once we append below it.
  if (std::filesystem::exists(receipts_path, ec)) {
    std::ifstream in(receipts_path);
    std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    size_t clean = CleanReceiptPrefixBytes(content);
    if (clean != content.size()) {
      std::filesystem::resize_file(receipts_path, clean, ec);
      WC_CHECK(!ec, "cannot truncate dirty receipt tail");
    }
  }

  std::ofstream receipts_out(receipts_path, std::ios::app);
  WC_CHECK(receipts_out.good(), "cannot open shard receipts file for append");

  std::vector<uint64_t> fingerprints(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    fingerprints[i] = ScenarioFingerprint(scenarios[i]);
  }

  // Startup resume scan, shared read-only by all workers. Post-claim
  // rechecks load fresh copies (one per scenario actually run, so the
  // rescan cost is proportional to fresh work, not grid size).
  DoneIndex startup = DoneIndex::Load(options.results_dir);

  // Claim order: our own stripe first, then everyone else's (stealing).
  std::vector<size_t> order;
  order.reserve(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (i % static_cast<size_t>(options.shard_count) ==
        static_cast<size_t>(options.shard_index)) {
      order.push_back(i);
    }
  }
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (i % static_cast<size_t>(options.shard_count) !=
        static_cast<size_t>(options.shard_index)) {
      order.push_back(i);
    }
  }

  std::mutex io_mutex;  // Guards receipts_out, the report counters, and rescans.

  ParallelFor(order.size(), options.threads, [&](size_t slot) {
    size_t i = order[slot];
    const Scenario& s = scenarios[i];
    uint64_t fingerprint = fingerprints[i];

    bool had_receipts = false;
    if (startup.Done(s.name, fingerprint, &had_receipts)) {
      std::lock_guard<std::mutex> lock(io_mutex);
      report.skipped++;
      return;
    }
    int claim_fd = TryClaim(claims_dir, fingerprint);
    if (claim_fd < 0) {
      // A live process owns this scenario right now; its receipt will
      // cover it. (A dead owner's flock is gone, so we would have won.)
      std::lock_guard<std::mutex> lock(io_mutex);
      report.contended++;
      return;
    }
    // Between our startup scan and this claim another shard may have
    // finished and released; recheck against a fresh store before paying
    // for the run.
    {
      std::lock_guard<std::mutex> lock(io_mutex);
      DoneIndex fresh = DoneIndex::Load(options.results_dir);
      if (fresh.Done(s.name, fingerprint, &had_receipts)) {
        report.skipped++;
        ReleaseClaim(claim_fd);
        return;
      }
    }

    ScenarioResult result = RunScenario(s);
    Receipt receipt = ReceiptFromResult(result, fingerprint);
    {
      std::lock_guard<std::mutex> lock(io_mutex);
      receipts_out << ReceiptLine(receipt) << "\n";
      receipts_out.flush();
      WC_CHECK(receipts_out.good(), "receipt append failed");
      report.ran++;
      if (had_receipts) {
        report.requeued++;  // Stale fingerprint or conflicting receipts.
      }
    }
    ReleaseClaim(claim_fd);
  });
  return report;
}

}  // namespace wcores
