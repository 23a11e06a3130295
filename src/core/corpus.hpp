// Persistent content-hashed tape corpus: the campaign farm's long-term
// memory of findings.
//
// A CorpusStore maps content keys — corpus_key(tape), a fold of the tape's
// scenario, finding kind and replay trace hash — to saved `efd-tape-v1`
// files in one directory. The farm (core/campaign.hpp, run_farm) classifies
// every violation against it:
//
//  * a key already present is a DUPLICATE: the finding was seen by an
//    earlier campaign (possibly a different plan shrinking to the same
//    1-minimal tape) and costs nothing beyond the lookup;
//  * a novel key is inserted atomically (write to a temp file in the corpus
//    directory, then rename), so a crash mid-insert never leaves a partial
//    tape — restart-with-corpus resumes from exactly the set of completed
//    inserts.
//
// Because ddmin converges different discoveries of the same bug onto the
// same minimal schedule, keying SAFETY findings by their SHRUNK tape's trace
// hash makes rediscovery cheap across plans, seeds and restarts. The farm
// additionally records raw-tape ALIASES (raw key -> stored key) in an
// append-only `aliases.idx` so an exact plan rediscovery is classified
// duplicate without re-shrinking.
//
// Robustness: open() scans the directory and moves entries that fail to
// parse (truncated writes from a crashed foreign process, hand-edited
// garbage) into `<dir>/quarantine/` instead of failing — a corrupt corpus
// entry must never take the farm down. absorb() indexes a read-only seed
// directory (tests/corpus/) without writing to it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/replay.hpp"

namespace efd {

/// A corpus directory (`efd_campaign run --save-dir`, `serve --corpus`) could
/// not be created, read or written. Tools map this to a distinct exit code:
/// losing tapes silently is the one failure mode a fuzzing service must not
/// have.
class CorpusIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Content key of a finding tape: a deterministic fold of the scenario name,
/// the finding kind line, and the tape's expected replay trace hash. Stable
/// across processes, restarts and directories — the same minimal tape always
/// keys the same.
[[nodiscard]] std::uint64_t corpus_key(const ScheduleTape& tape);

class CorpusStore {
 public:
  struct LoadReport {
    int loaded = 0;       ///< entries indexed (absorb + open)
    int quarantined = 0;  ///< malformed entries moved aside (open only)
    int aliases = 0;      ///< raw-tape aliases restored from aliases.idx
  };

  CorpusStore() = default;  ///< in-memory only until open() is called

  /// Binds the store to `dir` (created if missing), scans its *.tape entries
  /// and its aliases.idx. Malformed entries are moved to `dir`/quarantine/.
  /// Throws CorpusIoError when the directory cannot be created or scanned.
  LoadReport open(const std::string& dir);

  /// Indexes a read-only directory of tapes (non-recursive; the seed corpus
  /// in tests/corpus/). Malformed entries are counted and skipped, never
  /// moved: the directory is not ours. A missing directory is a no-op.
  LoadReport absorb(const std::string& dir);

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return entries_.count(key) != 0 || aliases_.count(key) != 0;
  }

  /// First-insert-wins. When novel and directory-backed, writes the tape
  /// atomically as `<stem>_<key-hex>.tape` (temp file + rename) and returns
  /// true; `path_out`, when non-null, receives the stored path ("" for an
  /// in-memory store). Returns false (and writes nothing) for a known key.
  /// Throws CorpusIoError when the write fails.
  bool insert(std::uint64_t key, const ScheduleTape& tape, const std::string& stem,
              std::string* path_out = nullptr);

  /// Records that raw-tape key `alias` denotes the stored finding `target`
  /// (appended to aliases.idx when directory-backed, so exact rediscoveries
  /// stay cheap across restarts). No-op when `alias` is already known.
  void add_alias(std::uint64_t alias, std::uint64_t target);

  /// Stored path of a key ("" when unknown or absorbed without a path).
  [[nodiscard]] std::string path_of(std::uint64_t key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t alias_count() const { return aliases_.size(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  LoadReport scan(const std::string& dir, bool quarantine);

  std::string dir_;  ///< "" = in-memory
  std::unordered_map<std::uint64_t, std::string> entries_;  ///< key -> path
  std::unordered_map<std::uint64_t, std::uint64_t> aliases_;  ///< raw key -> stored key
};

}  // namespace efd
