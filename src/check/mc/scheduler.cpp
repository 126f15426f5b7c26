#include "check/mc/scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace rbs::check::mc {
namespace {

// Hard ceiling on virtual threads per execution; vector clocks are fixed
// arrays of this width so clock joins stay allocation-free on the hot path.
constexpr int kMaxThreads = 8;

struct Clock {
  std::uint32_t c[kMaxThreads] = {};

  void join(const Clock& other) {
    for (int i = 0; i < kMaxThreads; ++i) c[i] = std::max(c[i], other.c[i]);
  }
  void clear() { *this = Clock{}; }
};

enum class OpKind : std::uint8_t {
  kNone,
  kLoad,
  kStore,
  kRmw,
  kPlainRead,
  kPlainWrite,
  kFenceAcquire,
  kFenceRelease,
  kLock,
  kUnlock,  // trace-only: unlock is an effect, never a schedule point
  kWait,
  kNotify,
  kYield,
  kSpawn,
  kJoin,
};

struct Op {
  OpKind kind = OpKind::kNone;
  const void* obj = nullptr;
  const void* obj2 = nullptr;  // the mutex of a kWait
  bool acquire = false;
  bool release = false;
  bool all = false;  // notify_all vs notify_one
  int target = -1;   // join target
};

/// Compact per-step record; rendered to strings only when a violation needs
/// its trace (50k clean executions must not pay string churn).
struct Ev {
  int thread;
  Op op;
  bool decision;  // granted schedule point (true) vs unlock effect (false)
};

struct AtomicState {
  std::string name;
  // Clock published by the release side of the last store (join-extended by
  // RMWs, so release sequences survive intervening relaxed RMWs). An
  // acquire load joins this into the reader.
  Clock store_clock;
};

struct PlainState {
  std::string name;
  // FastTrack-style epochs: the last write as (thread, clock-at-write) and
  // each thread's clock component at its last read since that write.
  int write_tid = -1;
  std::uint32_t write_val = 0;
  std::uint32_t read_vals[kMaxThreads] = {};
};

struct MutexState {
  std::string name;
  Clock clock;  // released-state clock: acquirers join it
  int owner = -1;
};

struct CvState {
  std::string name;
  std::vector<int> waiters;  // FIFO wakeup order
};

enum class VState : std::uint8_t {
  kRunning,    // executing user code between schedule points
  kAtPoint,    // parked with a pending op, awaiting a grant
  kBlockedCv,  // parked inside cv_wait, not yet notified
  kFinished,
};

struct VThread {
  int id = 0;
  std::thread os;
  VState st = VState::kRunning;
  Op pending;
  bool granted = false;
  bool abort = false;
  Clock clock;
  // Accumulated store-clocks of every atomic value read so far; a later
  // acquire fence joins this (C++ fence-atomic synchronization).
  Clock acq_pending;
  // Snapshot taken by the last release fence; later relaxed stores publish
  // it (C++ atomic-fence synchronization).
  Clock rel_fence_clock;
  bool has_rel_fence = false;
  std::function<void()> fn;
};

/// One decision point on the DFS path, persistent across executions.
struct Node {
  std::vector<int> enabled;      // determinism check on replay
  int running_before = -1;       // thread granted at the previous step
  int preempt_before = 0;        // preemptions accumulated above this node
  int chosen = -1;               // child currently being explored
  std::vector<int> local_sleep;  // children fully explored at this node
};

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// True when the two pending operations commute: executing them in either
/// order yields the same state and the same enabledness. Conservative where
/// it must be (spawn/join/fences touch scheduler-global or thread-global
/// state).
bool independent(const Op& a, const Op& b) {
  auto is_atomic = [](OpKind k) {
    return k == OpKind::kLoad || k == OpKind::kStore || k == OpKind::kRmw;
  };
  auto is_fence = [](OpKind k) {
    return k == OpKind::kFenceAcquire || k == OpKind::kFenceRelease;
  };
  if (a.kind == OpKind::kYield || b.kind == OpKind::kYield) return true;
  if (a.kind == OpKind::kSpawn || b.kind == OpKind::kSpawn) return false;
  if (a.kind == OpKind::kJoin || b.kind == OpKind::kJoin) return false;
  if (is_fence(a.kind) || is_fence(b.kind)) {
    // A fence commutes with anything that cannot change what it observes or
    // publishes: only atomic ops and other fences are entangled with it.
    return !(is_fence(a.kind) || is_atomic(a.kind)) ||
           !(is_fence(b.kind) || is_atomic(b.kind));
  }
  const bool share = a.obj == b.obj || a.obj == b.obj2 ||
                     (a.obj2 != nullptr && (a.obj2 == b.obj || a.obj2 == b.obj2));
  if (!share) return true;
  if (a.kind == OpKind::kLoad && b.kind == OpKind::kLoad) return true;
  if (a.kind == OpKind::kPlainRead && b.kind == OpKind::kPlainRead) return true;
  return false;
}

/// Deterministic PRNG for kRandom mode (splitmix64); sim::Rng lives in
/// rbs_sim, which this library deliberately does not depend on.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

class Engine;
Engine* g_engine = nullptr;
thread_local int tl_vthread = -1;

class Engine {
 public:
  Engine(const Options& opts, const std::function<void()>& program)
      : opts_(opts), program_(program) {
    if (opts_.max_threads > kMaxThreads) opts_.max_threads = kMaxThreads;
  }

  Result run() {
    while (true) {
      const Outcome outcome = run_one_execution();
      ++result_.executions;
      if (outcome == Outcome::kViolation) {
        result_.violation = true;
        return result_;
      }
      if (opts_.mode == Options::Mode::kRandom) {
        if (result_.executions >= opts_.random_executions) return result_;
        continue;
      }
      if (!backtrack()) {
        result_.exhausted = true;
        return result_;
      }
      if (result_.executions >= opts_.max_executions) {
        result_.hit_execution_cap = true;
        return result_;
      }
    }
  }

  // -- virtual-thread side ------------------------------------------------

  /// Parks the calling virtual thread at a schedule point and returns once
  /// the scheduler grants it (clock/object effects already applied).
  void park(const Op& op) {
    std::unique_lock<std::mutex> lk(mu_);
    VThread& me = *threads_[static_cast<std::size_t>(tl_vthread)];
    if (me.abort) throw AbortExecution{};
    me.pending = op;
    me.st = VState::kAtPoint;
    cv_.notify_all();
    cv_.wait(lk, [&] { return me.granted || me.abort; });
    if (me.abort) throw AbortExecution{};
    me.granted = false;
    me.st = VState::kRunning;
  }

  int spawn_thread(std::function<void()> fn) {
    park(Op{OpKind::kSpawn, nullptr, nullptr, false, false, false, -1});
    std::unique_lock<std::mutex> lk(mu_);
    if (static_cast<int>(threads_.size()) >= opts_.max_threads) {
      lk.unlock();
      fail("spawn exceeds Options::max_threads");
    }
    auto th = std::make_unique<VThread>();
    VThread& parent = *threads_[static_cast<std::size_t>(tl_vthread)];
    th->id = static_cast<int>(threads_.size());
    th->clock = parent.clock;  // everything before the spawn happens-before
    th->fn = std::move(fn);
    VThread* raw = th.get();
    threads_.push_back(std::move(th));
    raw->os = std::thread([this, raw] { trampoline(raw); });
    return raw->id;
  }

  void join_thread(int target) {
    Op op;
    op.kind = OpKind::kJoin;
    op.target = target;
    park(op);
  }

  [[noreturn]] void report_violation(const std::string& what) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!violation_) {
        violation_ = true;
        result_.message = what;
        render_trace();
      }
      cv_.notify_all();
    }
    throw AbortExecution{};
  }

  void unlock_effect(const void* mutex) {
    std::unique_lock<std::mutex> lk(mu_);
    if (violation_ || aborting_) return;  // execution already dead
    VThread& me = *threads_[static_cast<std::size_t>(tl_vthread)];
    MutexState& m = mutexes_[mutex];
    if (m.name.empty()) m.name = "mutex" + std::to_string(mutexes_.size() - 1);
    ++me.clock.c[me.id];
    m.clock = me.clock;
    m.owner = -1;
    Op op;
    op.kind = OpKind::kUnlock;
    op.obj = mutex;
    events_.push_back(Ev{me.id, op, false});
  }

  void rmw_commit_effect(const void* obj, bool release) {
    std::unique_lock<std::mutex> lk(mu_);
    if (violation_ || aborting_) return;
    VThread& me = *threads_[static_cast<std::size_t>(tl_vthread)];
    AtomicState& a = atomics_[obj];
    if (release) {
      a.store_clock.join(me.clock);
    } else if (me.has_rel_fence) {
      // Relaxed RMW after a release fence: the fence's snapshot becomes
      // visible to acquire readers of this value; the pre-existing release
      // sequence is preserved either way (join, never overwrite).
      a.store_clock.join(me.rel_fence_clock);
    }
  }

  void name_object(const void* obj, const char* name) {
    std::unique_lock<std::mutex> lk(mu_);
    // The object may be any of the four kinds; set whichever buckets have
    // (or will lazily create) it. Registering in all maps is harmless —
    // lookups are address-keyed per accessor kind.
    atomics_[obj].name = name;
    plains_[obj].name = name;
    mutexes_[obj].name = name;
    cvs_[obj].name = name;
  }

 private:
  enum class Outcome : std::uint8_t { kClean, kViolation };

  // -- execution lifecycle ------------------------------------------------

  void reset_execution() {
    threads_.clear();
    atomics_.clear();
    plains_.clear();
    mutexes_.clear();
    cvs_.clear();
    events_.clear();
    violation_ = false;
    aborting_ = false;
  }

  Outcome run_one_execution() {
    reset_execution();
    {
      std::unique_lock<std::mutex> lk(mu_);
      auto th = std::make_unique<VThread>();
      th->id = 0;
      th->fn = program_;
      VThread* raw = th.get();
      threads_.push_back(std::move(th));
      raw->os = std::thread([this, raw] { trampoline(raw); });
    }
    return controller_loop();
  }

  void trampoline(VThread* me) {
    tl_vthread = me->id;
    try {
      me->fn();
    } catch (const AbortExecution&) {
      // Expected unwind path; nothing to record.
    } catch (const std::exception& e) {
      report_uncaught(std::string("model thread threw: ") + e.what());
    } catch (...) {
      report_uncaught("model thread threw a non-std exception");
    }
    std::unique_lock<std::mutex> lk(mu_);
    me->st = VState::kFinished;
    tl_vthread = -1;
    cv_.notify_all();
  }

  /// Like report_violation but returns (used from the trampoline, which
  /// must still mark the thread finished).
  void report_uncaught(const std::string& what) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!violation_) {
      violation_ = true;
      result_.message = what;
      render_trace();
    }
    cv_.notify_all();
  }

  bool all_settled_locked() const {
    for (const auto& th : threads_) {
      if (th->st == VState::kRunning) return false;
    }
    return true;
  }

  bool enabled_locked(const VThread& th) const {
    if (th.st != VState::kAtPoint) return false;
    if (th.pending.kind == OpKind::kLock) {
      auto it = mutexes_.find(th.pending.obj);
      return it == mutexes_.end() || it->second.owner == -1;
    }
    if (th.pending.kind == OpKind::kJoin) {
      const int t = th.pending.target;
      return t >= 0 && t < static_cast<int>(threads_.size()) &&
             threads_[static_cast<std::size_t>(t)]->st == VState::kFinished;
    }
    return true;
  }

  Outcome controller_loop() {
    int step = 0;
    int running_prev = 0;
    int preempt_count = 0;
    std::vector<int> inherited_sleep;
    SplitMix64 rng{opts_.seed + result_.executions * 0x9e3779b97f4a7c15ULL};

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return violation_ || all_settled_locked(); });
      if (violation_) {
        abort_all(lk);
        return Outcome::kViolation;
      }

      std::vector<int> enabled;
      bool any_unfinished = false;
      for (const auto& th : threads_) {
        if (th->st != VState::kFinished) any_unfinished = true;
        if (enabled_locked(*th)) enabled.push_back(th->id);
      }
      if (!any_unfinished) {
        lk.unlock();
        join_all_os();
        lk.lock();
        return Outcome::kClean;
      }
      if (enabled.empty()) {
        set_violation_locked(deadlock_message_locked());
        abort_all(lk);
        return Outcome::kViolation;
      }
      if (step >= opts_.max_steps) {
        set_violation_locked("execution exceeded Options::max_steps (" +
                             std::to_string(opts_.max_steps) +
                             " schedule points) — livelock or unbounded spin");
        abort_all(lk);
        return Outcome::kViolation;
      }

      int choice = -1;
      if (opts_.mode == Options::Mode::kRandom) {
        if (step < static_cast<int>(opts_.replay.size()) &&
            result_.executions == 0 && contains(enabled, opts_.replay[static_cast<std::size_t>(step)])) {
          choice = opts_.replay[static_cast<std::size_t>(step)];
        } else {
          choice = enabled[static_cast<std::size_t>(rng.next() % enabled.size())];
        }
      } else if (step < static_cast<int>(path_.size())) {
        Node& node = path_[static_cast<std::size_t>(step)];
        if (node.enabled != enabled || !contains(enabled, node.chosen)) {
          set_violation_locked(
              "internal: model is nondeterministic — the enabled set changed "
              "on replay of an identical schedule prefix (step " +
              std::to_string(step) + ")");
          abort_all(lk);
          return Outcome::kViolation;
        }
        choice = node.chosen;
      } else {
        Node node;
        node.enabled = enabled;
        node.running_before = running_prev;
        node.preempt_before = preempt_count;
        choice = choose_fresh_locked(node, enabled, inherited_sleep, step);
        if (choice < 0) {
          // Every candidate pruned (all asleep, or the preemption budget is
          // spent): this branch is redundant / out of bound. Abandon it.
          abort_all(lk);
          if (opts_.mode == Options::Mode::kExhaustive && !path_.empty()) {
            // The abandoned node was never pushed; backtracking resumes at
            // its parent via the normal path.
          }
          return Outcome::kClean;
        }
        node.chosen = choice;
        path_.push_back(std::move(node));
      }

      // Propagate the sleep set past this decision, then count preemptions.
      {
        std::vector<int> next_sleep;
        const Op& chosen_op =
            threads_[static_cast<std::size_t>(choice)]->pending;
        std::vector<int> effective = inherited_sleep;
        if (opts_.mode == Options::Mode::kExhaustive &&
            step < static_cast<int>(path_.size())) {
          for (int s : path_[static_cast<std::size_t>(step)].local_sleep) {
            if (!contains(effective, s)) effective.push_back(s);
          }
        }
        for (int s : effective) {
          if (s == choice) continue;
          const VThread& sth = *threads_[static_cast<std::size_t>(s)];
          if (sth.st == VState::kAtPoint && independent(sth.pending, chosen_op)) {
            next_sleep.push_back(s);
          }
        }
        inherited_sleep = std::move(next_sleep);
      }
      if (choice != running_prev && contains(enabled, running_prev)) {
        ++preempt_count;
      }
      running_prev = choice;
      ++step;
      ++result_.steps;

      grant_locked(choice);
    }
  }

  /// Picks the child to explore at a freshly created node: prefer not
  /// preempting (continue running_prev), then ascending thread id; skip
  /// sleeping children and children whose switch would bust the bound.
  /// Options::replay overrides everything while it lasts (first execution).
  int choose_fresh_locked(const Node& node, const std::vector<int>& enabled,
                          const std::vector<int>& inherited_sleep, int step) {
    if (step < static_cast<int>(opts_.replay.size()) && path_.size() == static_cast<std::size_t>(step)) {
      const int forced = opts_.replay[static_cast<std::size_t>(step)];
      if (contains(enabled, forced)) return forced;
    }
    std::vector<int> order;
    if (contains(enabled, node.running_before)) order.push_back(node.running_before);
    for (int t : enabled) {
      if (t != node.running_before) order.push_back(t);
    }
    for (int t : order) {
      if (opts_.sleep_sets && contains(inherited_sleep, t)) {
        ++result_.sleep_set_skips;
        continue;
      }
      const bool preempts =
          t != node.running_before && contains(enabled, node.running_before);
      if (preempts && opts_.preemption_bound >= 0 &&
          node.preempt_before + 1 > opts_.preemption_bound) {
        ++result_.preemption_skips;
        continue;
      }
      return t;
    }
    return -1;
  }

  /// After a clean execution: register the explored child at the deepest
  /// node with an untried sibling and redirect the path there. False when
  /// the whole bounded tree is explored.
  bool backtrack() {
    while (!path_.empty()) {
      Node& node = path_.back();
      if (!contains(node.local_sleep, node.chosen)) {
        node.local_sleep.push_back(node.chosen);
      }
      // Reconstruct this node's inherited sleep set? Not needed: children
      // in local_sleep are exactly the explored ones, and the inherited
      // component is re-derived on descent. Candidates here must skip both;
      // the inherited part cannot be known without a replay, so we
      // conservatively skip only local_sleep and let the descent prune the
      // rest (a child in the inherited sleep set aborts cheaply at its
      // first fresh node).
      int pick = -1;
      std::vector<int> order;
      if (contains(node.enabled, node.running_before)) order.push_back(node.running_before);
      for (int t : node.enabled) {
        if (t != node.running_before) order.push_back(t);
      }
      for (int t : order) {
        if (contains(node.local_sleep, t)) continue;
        const bool preempts =
            t != node.running_before && contains(node.enabled, node.running_before);
        if (preempts && opts_.preemption_bound >= 0 &&
            node.preempt_before + 1 > opts_.preemption_bound) {
          ++result_.preemption_skips;
          continue;
        }
        pick = t;
        break;
      }
      if (pick >= 0) {
        node.chosen = pick;
        return true;
      }
      path_.pop_back();
    }
    return false;
  }

  /// Applies the chosen thread's pending operation (clocks, object state,
  /// blocking transitions, trace) and wakes it where the op completes.
  void grant_locked(int t) {
    VThread& th = *threads_[static_cast<std::size_t>(t)];
    Op op = th.pending;
    events_.push_back(Ev{t, op, true});
    ++th.clock.c[t];
    switch (op.kind) {
      case OpKind::kLoad: {
        AtomicState& a = touch_atomic(op.obj);
        th.acq_pending.join(a.store_clock);
        if (op.acquire) th.clock.join(a.store_clock);
        wake(th);
        break;
      }
      case OpKind::kStore: {
        AtomicState& a = touch_atomic(op.obj);
        if (op.release) {
          a.store_clock = th.clock;
        } else if (th.has_rel_fence) {
          a.store_clock = th.rel_fence_clock;
        } else {
          // A relaxed store heads no release sequence: acquire readers of
          // this value synchronize with nothing.
          a.store_clock.clear();
        }
        wake(th);
        break;
      }
      case OpKind::kRmw: {
        AtomicState& a = touch_atomic(op.obj);
        th.acq_pending.join(a.store_clock);
        if (op.acquire) th.clock.join(a.store_clock);
        // Write side published by rmw_commit_effect once the wrapper knows
        // whether the CAS succeeded.
        wake(th);
        break;
      }
      case OpKind::kPlainRead: {
        PlainState& p = touch_plain(op.obj);
        if (p.write_tid >= 0 && p.write_tid != t &&
            th.clock.c[p.write_tid] < p.write_val) {
          set_violation_locked("data race on " + p.name + ": t" +
                               std::to_string(t) + " reads while t" +
                               std::to_string(p.write_tid) +
                               "'s write is unordered (no happens-before)");
          return;  // stays parked; abort_all unwinds it
        }
        p.read_vals[t] = th.clock.c[t];
        wake(th);
        break;
      }
      case OpKind::kPlainWrite: {
        PlainState& p = touch_plain(op.obj);
        if (p.write_tid >= 0 && p.write_tid != t &&
            th.clock.c[p.write_tid] < p.write_val) {
          set_violation_locked("data race on " + p.name + ": t" +
                               std::to_string(t) + " writes while t" +
                               std::to_string(p.write_tid) +
                               "'s write is unordered (no happens-before)");
          return;  // stays parked; abort_all unwinds it
        }
        for (int u = 0; u < kMaxThreads; ++u) {
          if (u != t && p.read_vals[u] > 0 && th.clock.c[u] < p.read_vals[u]) {
            set_violation_locked("data race on " + p.name + ": t" +
                                 std::to_string(t) + " writes while t" +
                                 std::to_string(u) +
                                 "'s read is unordered (no happens-before)");
            return;  // stays parked; abort_all unwinds it
          }
        }
        p.write_tid = t;
        p.write_val = th.clock.c[t];
        for (auto& rv : p.read_vals) rv = 0;
        wake(th);
        break;
      }
      case OpKind::kFenceAcquire:
        th.clock.join(th.acq_pending);
        wake(th);
        break;
      case OpKind::kFenceRelease:
        th.rel_fence_clock = th.clock;
        th.has_rel_fence = true;
        wake(th);
        break;
      case OpKind::kLock: {
        MutexState& m = touch_mutex(op.obj);
        m.owner = t;
        th.clock.join(m.clock);
        wake(th);
        break;
      }
      case OpKind::kWait: {
        CvState& c = touch_cv(op.obj);
        MutexState& m = touch_mutex(op.obj2);
        if (m.owner != t) {
          set_violation_locked("cv wait on " + c.name +
                               " without holding its mutex");
          return;  // stays parked; abort_all unwinds it
        }
        // Atomic release-and-enqueue: a notify granted from here on sees
        // this waiter. A notify granted between the waiter's predicate
        // check and this point is lost — exactly the std::condition_variable
        // lost-wakeup window when the notifier does not hold the mutex.
        m.clock = th.clock;
        m.owner = -1;
        c.waiters.push_back(t);
        th.st = VState::kBlockedCv;
        // No wake: the thread stays parked until notified and regranted.
        break;
      }
      case OpKind::kNotify: {
        CvState& c = touch_cv(op.obj);
        const std::size_t count =
            op.all ? c.waiters.size() : (c.waiters.empty() ? 0 : 1);
        for (std::size_t i = 0; i < count; ++i) {
          VThread& w = *threads_[static_cast<std::size_t>(c.waiters[i])];
          // The woken waiter's next step is reacquiring the mutex it
          // released in kWait.
          Op reacquire;
          reacquire.kind = OpKind::kLock;
          reacquire.obj = w.pending.obj2;
          w.pending = reacquire;
          w.st = VState::kAtPoint;
        }
        c.waiters.erase(c.waiters.begin(),
                        c.waiters.begin() + static_cast<std::ptrdiff_t>(count));
        wake(th);
        break;
      }
      case OpKind::kYield:
      case OpKind::kSpawn:
        wake(th);
        break;
      case OpKind::kJoin: {
        th.clock.join(threads_[static_cast<std::size_t>(op.target)]->clock);
        wake(th);
        break;
      }
      case OpKind::kUnlock:
      case OpKind::kNone:
        set_violation_locked("internal: unexpected pending op kind");
        break;  // stays parked; abort_all unwinds it
    }
  }

  void wake(VThread& th) {
    // Mark the thread running *before* it resumes: the controller's settled
    // check runs under the same lock, and a thread left kAtPoint with a
    // grant in flight would be re-granted in a loop.
    th.st = VState::kRunning;
    th.granted = true;
    cv_.notify_all();
  }

  void set_violation_locked(const std::string& what) {
    if (!violation_) {
      violation_ = true;
      result_.message = what;
      render_trace();
    }
  }

  /// Tears the execution down after a violation (or an abandoned pruned
  /// branch): children unwind and are joined before thread 0, so a model
  /// whose state lives on thread 0's stack is never freed under a peer.
  void abort_all(std::unique_lock<std::mutex>& lk) {
    aborting_ = true;
    for (int id = static_cast<int>(threads_.size()) - 1; id >= 0; --id) {
      VThread& th = *threads_[static_cast<std::size_t>(id)];
      if (th.st != VState::kFinished) {
        th.abort = true;
        cv_.notify_all();
        cv_.wait(lk, [&] { return th.st == VState::kFinished; });
      }
      lk.unlock();
      th.os.join();
      lk.lock();
    }
  }

  void join_all_os() {
    for (auto& th : threads_) {
      if (th->os.joinable()) th->os.join();
    }
  }

  std::string deadlock_message_locked() {
    std::ostringstream out;
    out << "deadlock: no virtual thread is enabled —";
    for (const auto& th : threads_) {
      if (th->st == VState::kFinished) continue;
      out << " t" << th->id << " ";
      if (th->st == VState::kBlockedCv) {
        out << "waits on " << object_name(th->pending.obj, ObjKind::kCv)
            << " (never notified)";
      } else {
        out << "blocked at " << op_label(th->pending);
      }
      out << ";";
    }
    return out.str();
  }

  // -- naming & trace rendering -------------------------------------------

  enum class ObjKind : std::uint8_t { kAtomic, kPlain, kMutex, kCv };

  AtomicState& touch_atomic(const void* obj) {
    AtomicState& a = atomics_[obj];
    if (a.name.empty()) a.name = "atomic" + std::to_string(atomics_.size() - 1);
    return a;
  }
  PlainState& touch_plain(const void* obj) {
    PlainState& p = plains_[obj];
    if (p.name.empty()) p.name = "cell" + std::to_string(plains_.size() - 1);
    return p;
  }
  MutexState& touch_mutex(const void* obj) {
    MutexState& m = mutexes_[obj];
    if (m.name.empty()) m.name = "mutex" + std::to_string(mutexes_.size() - 1);
    return m;
  }
  CvState& touch_cv(const void* obj) {
    CvState& c = cvs_[obj];
    if (c.name.empty()) c.name = "cv" + std::to_string(cvs_.size() - 1);
    return c;
  }

  std::string object_name(const void* obj, ObjKind kind) {
    switch (kind) {
      case ObjKind::kAtomic: return touch_atomic(obj).name;
      case ObjKind::kPlain: return touch_plain(obj).name;
      case ObjKind::kMutex: return touch_mutex(obj).name;
      case ObjKind::kCv: return touch_cv(obj).name;
    }
    return "?";
  }

  std::string op_label(const Op& op) {
    switch (op.kind) {
      case OpKind::kLoad:
        return object_name(op.obj, ObjKind::kAtomic) + ".load(" +
               (op.acquire ? "acquire" : "relaxed") + ")";
      case OpKind::kStore:
        return object_name(op.obj, ObjKind::kAtomic) + ".store(" +
               (op.release ? "release" : "relaxed") + ")";
      case OpKind::kRmw:
        return object_name(op.obj, ObjKind::kAtomic) + ".rmw(" +
               (op.acquire ? "acquire" : "relaxed") + ")";
      case OpKind::kPlainRead:
        return object_name(op.obj, ObjKind::kPlain) + ".read()";
      case OpKind::kPlainWrite:
        return object_name(op.obj, ObjKind::kPlain) + ".write()";
      case OpKind::kFenceAcquire: return "fence(acquire)";
      case OpKind::kFenceRelease: return "fence(release)";
      case OpKind::kLock:
        return object_name(op.obj, ObjKind::kMutex) + ".lock()";
      case OpKind::kUnlock:
        return object_name(op.obj, ObjKind::kMutex) + ".unlock()";
      case OpKind::kWait:
        return object_name(op.obj, ObjKind::kCv) + ".wait(" +
               object_name(op.obj2, ObjKind::kMutex) + ")";
      case OpKind::kNotify:
        return object_name(op.obj, ObjKind::kCv) +
               (op.all ? ".notify_all()" : ".notify_one()");
      case OpKind::kYield: return "yield()";
      case OpKind::kSpawn: return "spawn()";
      case OpKind::kJoin: return "join(t" + std::to_string(op.target) + ")";
      case OpKind::kNone: break;
    }
    return "?";
  }

  void render_trace() {
    result_.trace.clear();
    result_.trace.reserve(events_.size());
    for (const Ev& ev : events_) {
      result_.trace.push_back(
          Step{ev.thread, "t" + std::to_string(ev.thread) + " " +
                              op_label(ev.op) +
                              (ev.decision ? "" : "  [effect]")});
    }
  }

  Options opts_;
  std::function<void()> program_;
  Result result_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<VThread>> threads_;
  // Address-keyed object registries: lookup-only (never iterated), reset
  // per execution, so unordered lookup cannot leak iteration order anywhere.
  // rbs-analyze: allow(R2) -- lookup-only registry, never iterated
  std::unordered_map<const void*, AtomicState> atomics_;
  // rbs-analyze: allow(R2) -- lookup-only registry, never iterated
  std::unordered_map<const void*, PlainState> plains_;
  // rbs-analyze: allow(R2) -- lookup-only registry, never iterated
  std::unordered_map<const void*, MutexState> mutexes_;
  // rbs-analyze: allow(R2) -- lookup-only registry, never iterated
  std::unordered_map<const void*, CvState> cvs_;
  std::vector<Ev> events_;
  std::vector<Node> path_;  // persistent DFS state (kExhaustive)
  bool violation_ = false;
  bool aborting_ = false;
};

}  // namespace

std::string Result::summary() const {
  std::ostringstream out;
  if (violation) {
    out << "VIOLATION after " << executions << " execution(s): " << message
        << "\nschedule (" << trace.size() << " steps):\n";
    for (const Step& s : trace) out << "  " << s.label << "\n";
    out << "replay thread ids: {";
    bool first = true;
    for (const Step& s : trace) {
      if (s.label.find("[effect]") != std::string::npos) continue;
      out << (first ? "" : ", ") << s.thread;
      first = false;
    }
    out << "}\n";
  } else {
    out << (exhausted ? "exhausted" : "no violation") << ": " << executions
        << " execution(s), " << steps << " schedule points, "
        << sleep_set_skips << " sleep-set prune(s), " << preemption_skips
        << " preemption-bound prune(s)";
    if (hit_execution_cap) out << " [execution cap hit]";
    out << "\n";
  }
  return out.str();
}

Result explore(const Options& opts, const std::function<void()>& program) {
  if (g_engine != nullptr) {
    throw std::logic_error("mc::explore is not reentrant");
  }
  Engine engine(opts, program);
  g_engine = &engine;
  Result result;
  try {
    result = engine.run();
  } catch (...) {
    g_engine = nullptr;
    throw;
  }
  g_engine = nullptr;
  return result;
}

bool model_active() noexcept { return g_engine != nullptr && tl_vthread >= 0; }

ThreadHandle spawn(std::function<void()> fn) {
  if (!model_active()) {
    throw std::logic_error("mc::spawn called outside a model execution");
  }
  return ThreadHandle{g_engine->spawn_thread(std::move(fn))};
}

void join(ThreadHandle handle) {
  if (!model_active()) {
    throw std::logic_error("mc::join called outside a model execution");
  }
  g_engine->join_thread(handle.id);
}

void yield() {
  if (!model_active()) return;
  Op op;
  op.kind = OpKind::kYield;
  g_engine->park(op);
}

void fail(const std::string& what) {
  if (!model_active()) {
    throw std::logic_error("model violation outside explore(): " + what);
  }
  g_engine->report_violation(what);
}

namespace ops {

namespace {
inline Engine* active_engine() {
  return model_active() ? g_engine : nullptr;
}
inline void park_op(Engine* e, const Op& op) { e->park(op); }
}  // namespace

void atomic_load(const void* obj, bool acquire) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kLoad;
    op.obj = obj;
    op.acquire = acquire;
    park_op(e, op);
  }
}

void atomic_store(const void* obj, bool release) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kStore;
    op.obj = obj;
    op.release = release;
    park_op(e, op);
  }
}

void atomic_rmw(const void* obj, bool acquire) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kRmw;
    op.obj = obj;
    op.acquire = acquire;
    park_op(e, op);
  }
}

void atomic_rmw_commit(const void* obj, bool release) {
  if (Engine* e = active_engine()) e->rmw_commit_effect(obj, release);
}

void plain_read(const void* obj) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kPlainRead;
    op.obj = obj;
    park_op(e, op);
  }
}

void plain_write(const void* obj) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kPlainWrite;
    op.obj = obj;
    park_op(e, op);
  }
}

void fence_acquire() {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kFenceAcquire;
    park_op(e, op);
  }
}

void fence_release() {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kFenceRelease;
    park_op(e, op);
  }
}

void mutex_lock(const void* mutex) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kLock;
    op.obj = mutex;
    park_op(e, op);
  }
}

void mutex_unlock(const void* mutex) {
  if (Engine* e = active_engine()) e->unlock_effect(mutex);
}

void cv_wait(const void* cv, const void* mutex) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kWait;
    op.obj = cv;
    op.obj2 = mutex;
    park_op(e, op);
  }
}

void cv_notify(const void* cv, bool all) {
  if (Engine* e = active_engine()) {
    Op op;
    op.kind = OpKind::kNotify;
    op.obj = cv;
    op.all = all;
    park_op(e, op);
  }
}

void set_name(const void* obj, const char* name) {
  if (Engine* e = active_engine()) e->name_object(obj, name);
}

}  // namespace ops

}  // namespace rbs::check::mc
