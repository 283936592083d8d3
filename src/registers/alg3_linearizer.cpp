#include "registers/alg3_linearizer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/assert.hpp"

namespace rlt::registers {

namespace {

/// Writes that performed their line-8 write to Val[-], in time order —
/// the events Algorithm 3 scans.
std::vector<int> val_write_order(const Alg2Trace& trace) {
  std::vector<int> idx;
  for (std::size_t i = 0; i < trace.writes.size(); ++i) {
    if (trace.writes[i].val_write_time != 0) idx.push_back(static_cast<int>(i));
  }
  std::sort(idx.begin(), idx.end(), [&trace](int a, int b) {
    return trace.writes[static_cast<std::size_t>(a)].val_write_time <
           trace.writes[static_cast<std::size_t>(b)].val_write_time;
  });
  return idx;
}

}  // namespace

Alg3Result run_alg3(const Alg2Trace& trace) {
  // ---- Lines 1-20: linearization of write operations ----
  std::vector<int> ws;  // trace write indices, linearized order
  std::vector<Time> ws_time;  // parallel: the t_i that appended each
  std::vector<bool> in_ws(trace.writes.size(), false);

  for (const int wi_idx : val_write_order(trace)) {
    const Alg2WriteTrace& wi = trace.writes[static_cast<std::size_t>(wi_idx)];
    const Time ti = wi.val_write_time;
    if (in_ws[static_cast<std::size_t>(wi_idx)]) continue;  // lines 6, 11-13

    // Line 7: write operations active at ti and not yet linearized.
    // Line 8: their (possibly incomplete) timestamps at ti.
    // Line 9: B_i — those with timestamp <= wi's.
    struct Candidate {
      int idx;
      VectorTs ts;
    };
    std::vector<Candidate> bi;
    for (std::size_t w = 0; w < trace.writes.size(); ++w) {
      if (in_ws[w]) continue;
      const Alg2WriteTrace& cand = trace.writes[w];
      const bool active =
          cand.start <= ti && (cand.end == history::kNoTime || ti <= cand.end);
      if (!active) continue;
      VectorTs ts = static_cast<int>(w) == wi_idx
                        ? wi.final_ts
                        : cand.partial_ts_at(ti, trace.infinite_init);
      if (ts <= wi.final_ts) {
        bi.push_back(Candidate{static_cast<int>(w), std::move(ts)});
      }
    }
    // Line 10: append B_i in increasing timestamp order.  Equal partial
    // timestamps are broken by writer slot; the paper's proof shows no
    // read can ever observe the relative order of two non-wi members of
    // B_i (Claim 42.1.1), so any deterministic tie-break is sound — and
    // determinism is what Claim 49.1's prefix argument needs.
    std::sort(bi.begin(), bi.end(), [&trace](const Candidate& a,
                                             const Candidate& b) {
      const auto cmp = a.ts.compare(b.ts);
      if (cmp != std::strong_ordering::equal) {
        return cmp == std::strong_ordering::less;
      }
      return trace.writes[static_cast<std::size_t>(a.idx)].writer <
             trace.writes[static_cast<std::size_t>(b.idx)].writer;
    });
    for (const Candidate& c : bi) {
      ws.push_back(c.idx);
      ws_time.push_back(ti);
      in_ws[static_cast<std::size_t>(c.idx)] = true;
    }
    RLT_CHECK_MSG(in_ws[static_cast<std::size_t>(wi_idx)],
                  "Algorithm 3: wi must be in its own B_i");
  }

  // ---- Lines 21-32: linearization of read operations ----
  // Each completed read goes right after the write that published the
  // timestamp it returned — timestamps identify writes uniquely
  // (Observation 24) — and reads of the initial value ([0 … 0]) go first
  // (line 26); reads of one write are ordered by start time.
  std::vector<std::vector<int>> reads_of(trace.writes.size());
  std::vector<int> initial_reads;
  const VectorTs initial_ts = VectorTs::zeros(trace.n);
  for (std::size_t r = 0; r < trace.reads.size(); ++r) {
    const VectorTs& ts = trace.reads[r].ts;
    if (ts == initial_ts) {
      initial_reads.push_back(static_cast<int>(r));
      continue;
    }
    for (std::size_t w = 0; w < trace.writes.size(); ++w) {
      if (trace.writes[w].final_ts == ts) {
        reads_of[w].push_back(static_cast<int>(r));
        break;
      }
    }
  }

  Alg3Result result;
  const auto place_reads = [&](std::vector<int>& reads) {
    std::sort(reads.begin(), reads.end(), [&trace](int a, int b) {
      return trace.reads[static_cast<std::size_t>(a)].start <
             trace.reads[static_cast<std::size_t>(b)].start;
    });
    for (const int r : reads) {
      result.sequence.push_back(
          trace.reads[static_cast<std::size_t>(r)].hl_op_id);
    }
  };
  place_reads(initial_reads);
  // Each write, followed by the reads that returned its value
  // (lines 28-29: after w, before any subsequent write).
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const Alg2WriteTrace& wt = trace.writes[static_cast<std::size_t>(ws[i])];
    result.sequence.push_back(wt.hl_op_id);
    result.write_sequence.push_back(wt.hl_op_id);
    result.commit_times.push_back(ws_time[i]);
    place_reads(reads_of[static_cast<std::size_t>(ws[i])]);
  }
  return result;
}

checker::WslWitness alg3_wsl_witness(const Alg2Trace& trace) {
  const Alg3Result alg3 = run_alg3(trace);
  checker::WslWitness witness;
  witness.commits.reserve(alg3.write_sequence.size());
  for (std::size_t i = 0; i < alg3.write_sequence.size(); ++i) {
    witness.commits.push_back({alg3.write_sequence[i], alg3.commit_times[i]});
  }
  return witness;
}

Alg3Verification verify_alg3_wsl(const Alg2Trace& trace,
                                 const history::History& hl) {
  Alg3Verification out;

  // Observation 24: distinct writes publish distinct timestamps.
  {
    std::map<std::string, int> seen;
    for (std::size_t w = 0; w < trace.writes.size(); ++w) {
      const Alg2WriteTrace& wt = trace.writes[w];
      if (wt.val_write_time == 0) continue;
      const auto [it, inserted] =
          seen.emplace(wt.final_ts.to_string(), static_cast<int>(w));
      if (!inserted) {
        out.error = "Observation 24 violated: duplicate timestamp " +
                    wt.final_ts.to_string();
        return out;
      }
    }
  }

  const Alg3Result full = run_alg3(trace);

  // (L): the output is a legal linearization of the high-level history.
  {
    const checker::SequentialCheck chk =
        checker::is_legal_sequential(hl, full.sequence);
    if (!chk.ok) {
      out.error = "Algorithm 3 output is not a linearization: " + chk.error;
      return out;
    }
  }

  // (P): the write sequence on every prefix is a prefix of the full one.
  // Event times at which the trace (and thus WS) can change:
  std::vector<Time> times;
  for (const Alg2WriteTrace& w : trace.writes) {
    times.push_back(w.start);
    if (w.end != history::kNoTime) times.push_back(w.end);
    if (w.val_write_time != 0) times.push_back(w.val_write_time);
    for (const Time t : w.entry_set_time) {
      if (t != 0) times.push_back(t);
    }
  }
  for (const Alg2ReadTrace& r : trace.reads) {
    times.push_back(r.start);
    if (r.end != history::kNoTime) times.push_back(r.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  for (const Time t : times) {
    const Alg2Trace prefix = trace.prefix_at(t);
    const Alg3Result part = run_alg3(prefix);
    if (!checker::is_prefix_of(part.write_sequence, full.write_sequence)) {
      std::ostringstream os;
      os << "prefix property violated at t=" << t << ": WS(prefix) = [";
      for (const int id : part.write_sequence) os << ' ' << id;
      os << " ] is not a prefix of WS(full) = [";
      for (const int id : full.write_sequence) os << ' ' << id;
      os << " ]";
      out.error = os.str();
      return out;
    }
    // (L) on the prefix as well (ids are stable: invocation order == id
    // order, so an event-prefix keeps a prefix of the id space).
    const history::History hp = hl.prefix_at(t);
    std::vector<int> seq;
    for (const int id : part.sequence) {
      if (id < static_cast<int>(hp.size())) seq.push_back(id);
    }
    const checker::SequentialCheck chk = checker::is_legal_sequential(hp, seq);
    if (!chk.ok) {
      out.error = "Algorithm 3 prefix output is not a linearization at t=" +
                  std::to_string(t) + ": " + chk.error;
      return out;
    }
    ++out.prefixes_checked;
  }
  out.ok = true;
  return out;
}

}  // namespace rlt::registers
