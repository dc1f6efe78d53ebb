// Command-line plumbing for wc-analyze: file collection, policy-chain
// resolution, and the SARIF report writer. Kept out of the binary so the
// tests walk the same files and resolve the same .wc-lint.policy chains.
#ifndef SRC_TOOLS_LINT_DRIVER_H_
#define SRC_TOOLS_LINT_DRIVER_H_

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/tools/lint/policy.h"
#include "src/tools/lint/rules.h"

namespace wcores::lint {

inline constexpr char kPolicyFileName[] = ".wc-lint.policy";

bool HasSourceExtension(const std::filesystem::path& p);

std::string ReadFileToString(const std::filesystem::path& p, bool* ok);

// Recursively collects .h/.hpp/.cc/.cpp under `p` (or `p` itself when it is
// a file), in sorted order so every report is stable.
void CollectFiles(const std::filesystem::path& p, std::vector<std::filesystem::path>* out,
                  std::vector<std::string>* errors);

// Loads (and caches) the policy of one directory; nullptr when it has none.
class PolicyCache {
 public:
  const Policy* ForDirectory(const std::filesystem::path& dir,
                             std::vector<std::string>* errors);

 private:
  std::map<std::string, std::optional<Policy>> cache_;
};

// Policy chain for `file`: root-most directory first, the file's own
// directory last (innermost wins in ResolveSeverities).
std::vector<const Policy*> PolicyChainFor(const std::filesystem::path& file,
                                          const std::filesystem::path& root, PolicyCache* cache,
                                          std::vector<std::string>* errors);

std::string JsonEscape(const std::string& s);

// SARIF 2.1.0 report: "$schema", tool.driver.{name,rules} (wc-analyze and
// RuleCatalog()) + one result per finding. Suppressed findings carry a
// suppressions[] entry, as SARIF models them.
bool WriteSarifReport(const std::string& path, const std::vector<Finding>& findings);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_DRIVER_H_
