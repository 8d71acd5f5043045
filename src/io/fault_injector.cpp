#include "io/fault_injector.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace falvolt::io {

namespace {

// The armed injector. Owned here so arm/disarm manage lifetime; raw
// set_env(&*g) installs it as the process environment. Guarded by
// g_arm_mu — arming is a per-run setup action, never hot.
std::mutex g_arm_mu;
std::unique_ptr<FaultInjector> g_injector;

obs::Counter& faults_injected_counter() {
  static obs::Counter& c = obs::counter("io.faults.injected");
  return c;
}
obs::Counter& faults_torn_counter() {
  static obs::Counter& c = obs::counter("io.faults.torn_writes");
  return c;
}
obs::Counter& faults_bitflip_counter() {
  static obs::Counter& c = obs::counter("io.faults.bitflips");
  return c;
}
obs::Counter& ptp_armed_counter() {
  static obs::Counter& c = obs::counter("io.ptp.armed");
  return c;
}

bool parse_bool01(const std::string& key, const std::string& value) {
  if (value == "0") return false;
  if (value == "1") return true;
  throw std::invalid_argument("--faults: " + key + " must be 0 or 1, got '" +
                              value + "'");
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  std::uint64_t out = 0;
  try {
    out = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    throw std::invalid_argument("--faults: " + key +
                                " must be an unsigned integer, got '" + value +
                                "'");
  }
  return out;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  if (spec.empty() || spec == "none") return out;

  bool saw_mode = false;
  bool saw_p = false;
  bool saw_runlen = false;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("--faults: expected key=value, got '" + item +
                                  "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "mode") {
      saw_mode = true;
      if (value == "none") {
        out.mode = FaultMode::kNone;
      } else if (value == "independent") {
        out.mode = FaultMode::kIndependent;
      } else if (value == "runlength") {
        out.mode = FaultMode::kRunLength;
      } else {
        throw std::invalid_argument(
            "--faults: mode must be none|independent|runlength, got '" + value +
            "'");
      }
    } else if (key == "p") {
      saw_p = true;
      std::size_t used = 0;
      double p = 0.0;
      try {
        p = std::stod(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != value.size() || value.empty() || !(p > 0.0) || p > 1.0) {
        throw std::invalid_argument("--faults: p must be in (0,1], got '" +
                                    value + "'");
      }
      out.p = p;
    } else if (key == "runlen") {
      saw_runlen = true;
      out.run_length = parse_u64(key, value);
      if (out.run_length == 0) {
        throw std::invalid_argument("--faults: runlen must be >= 1");
      }
    } else if (key == "seed") {
      out.seed = parse_u64(key, value);
    } else if (key == "torn") {
      out.torn_writes = parse_bool01(key, value);
    } else if (key == "bitflip") {
      out.bitflips = parse_bool01(key, value);
    } else if (key == "read") {
      out.corrupt_reads = parse_bool01(key, value);
    } else if (key == "kill") {
      out.kill = parse_bool01(key, value);
    } else {
      throw std::invalid_argument("--faults: unknown key '" + key + "'");
    }
  }
  if (!saw_mode) {
    throw std::invalid_argument("--faults: missing required key 'mode'");
  }
  if (out.mode == FaultMode::kIndependent && !saw_p) {
    throw std::invalid_argument("--faults: mode=independent requires p=");
  }
  if (out.mode == FaultMode::kRunLength && !saw_runlen) {
    throw std::invalid_argument("--faults: mode=runlength requires runlen=");
  }
  if (out.mode != FaultMode::kIndependent && saw_p) {
    throw std::invalid_argument("--faults: p= only applies to mode=independent");
  }
  if (out.mode != FaultMode::kRunLength && saw_runlen) {
    throw std::invalid_argument(
        "--faults: runlen= only applies to mode=runlength");
  }
  return out;
}

std::string to_string(const FaultSpec& spec) {
  if (!spec.enabled()) return "mode=none";
  std::ostringstream out;
  if (spec.mode == FaultMode::kIndependent) {
    out << "mode=independent,p=" << spec.p;
  } else {
    out << "mode=runlength,runlen=" << spec.run_length;
  }
  out << ",seed=" << spec.seed;
  if (!spec.torn_writes) out << ",torn=0";
  if (!spec.bitflips) out << ",bitflip=0";
  if (spec.corrupt_reads) out << ",read=1";
  if (spec.kill) out << ",kill=1";
  return out.str();
}

void arm_faults(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  set_env(nullptr);
  g_injector.reset();
  if (!spec.enabled()) return;
  g_injector = std::make_unique<FaultInjector>(spec);
  set_env(g_injector.get());
}

void disarm_faults() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  // Keep the injector alive for fault_report(); only uninstall it.
  set_env(nullptr);
}

bool faults_armed() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  return g_injector != nullptr && &env() == g_injector.get();
}

FaultReport fault_report() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  FaultReport r;
  if (!g_injector) return r;
  FaultInjector& inj = *g_injector;
  std::lock_guard<std::mutex> inner(inj.mu_);
  r.spec = inj.spec_;
  r.points = inj.points_;
  r.injected = inj.injected_;
  r.torn_writes = inj.torn_;
  r.bitflips = inj.bitflips_;
  r.ptp_armed = inj.ptp_armed_;
  r.kills = inj.kills_;
  return r;
}

std::string fault_report_line() {
  const FaultReport r = fault_report();
  std::ostringstream out;
  out << "[faults] " << to_string(r.spec) << ": " << r.points << " point(s), "
      << r.injected << " injected (" << r.torn_writes << " torn, " << r.bitflips
      << " bitflip), " << r.ptp_armed << " PtP point(s) armed, " << r.kills
      << " kill(s)";
  return out.str();
}

void ptp(const char* file, int line, FaultSensitivity sensitivity) {
  // Snapshot the installed injector; a disarm between the check and the
  // call only means this point counts against a session that just
  // ended, which is fine — PtP points are advisory markers, not state.
  FaultInjector* inj = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_arm_mu);
    if (g_injector && &env() == g_injector.get()) inj = g_injector.get();
  }
  if (!inj) return;
  ptp_armed_counter().add(1);
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(inj->mu_);
    ++inj->ptp_armed_;
    fire = inj->should_fault(sensitivity);
  }
  if (!fire) return;
  faults_injected_counter().add(1);
  if (inj->spec_.kill) {
    std::fprintf(stderr, "[faults] PullThePlug at %s:%d\n", file, line);
    std::fflush(stderr);
    inj->pull_the_plug();
  }
}

FaultInjector::FaultInjector(FaultSpec spec)
    : spec_(spec), rng_(spec.seed) {}

bool FaultInjector::should_fault(FaultSensitivity sensitivity) {
  // Callers hold mu_.
  ++points_;
  bool fire = false;
  switch (spec_.mode) {
    case FaultMode::kNone:
      break;
    case FaultMode::kIndependent: {
      double p = spec_.p;
      if (sensitivity == FaultSensitivity::kHigh) p = std::min(1.0, 10.0 * p);
      fire = std::bernoulli_distribution(p)(rng_);
      break;
    }
    case FaultMode::kRunLength:
      fire = points_ == spec_.run_length;
      break;
  }
  if (fire) ++injected_;
  return fire;
}

std::uint64_t FaultInjector::draw(std::uint64_t n) {
  return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng_);
}

void FaultInjector::pull_the_plug() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++kills_;
  }
  ::kill(::getpid(), SIGKILL);
  // SIGKILL cannot be caught; if we are somehow still alive, stop hard.
  ::_exit(137);
}

FaultInjector::Damage FaultInjector::corrupt(std::string& bytes) {
  // Callers hold mu_. Pick among the enabled damage kinds; empty
  // payloads can only be "torn" to stay empty, which is a no-op.
  const bool can_tear = spec_.torn_writes && !bytes.empty();
  const bool can_flip = spec_.bitflips && !bytes.empty();
  if (!can_tear && !can_flip) return Damage::kNone;
  const bool tear = can_tear && (!can_flip || draw(2) == 0);
  if (tear) {
    bytes.resize(draw(bytes.size()));  // keep [0, size) bytes of prefix
    ++torn_;
    return Damage::kTorn;
  }
  const std::uint64_t bit = draw(bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  ++bitflips_;
  return Damage::kBitflip;
}

std::optional<std::string> FaultInjector::read_file(const std::string& path) {
  auto bytes = Env::read_file(path);
  if (!spec_.corrupt_reads || !bytes) return bytes;
  bool fire = false;
  Damage damage = Damage::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fire = should_fault(FaultSensitivity::kNormal);
    if (fire) {
      // Read corruption is always a bit flip (a torn read is just a
      // short read the caller already treats as failure).
      if (!bytes->empty()) {
        const std::uint64_t bit = draw(bytes->size() * 8);
        (*bytes)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        ++bitflips_;
        damage = Damage::kBitflip;
      }
    }
  }
  if (fire) {
    faults_injected_counter().add(1);
    if (damage == Damage::kBitflip) faults_bitflip_counter().add(1);
    if (spec_.kill) pull_the_plug();
  }
  return bytes;
}

bool FaultInjector::write_file(const std::string& path,
                               const std::string& bytes) {
  bool fire = false;
  Damage damage = Damage::kNone;
  std::string damaged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fire = should_fault(FaultSensitivity::kNormal);
    if (fire) {
      damaged = bytes;
      damage = corrupt(damaged);
    }
  }
  if (!fire || damage == Damage::kNone) {
    // Not fired, or fired with every damage kind disabled (kill-only
    // specs): the write itself goes through clean.
    if (fire) faults_injected_counter().add(1);
    if (fire && spec_.kill) {
      // Plug pulled INSTEAD of the write: the bytes never reach disk.
      pull_the_plug();
    }
    return Env::write_file(path, bytes);
  }
  faults_injected_counter().add(1);
  if (damage == Damage::kTorn) faults_torn_counter().add(1);
  if (damage == Damage::kBitflip) faults_bitflip_counter().add(1);
  // Persist the damaged bytes, then either die (plug pulled mid-write)
  // or LIE that the write succeeded (silent corruption) — the reader's
  // frame validation owns turning this into "recompute".
  const bool ok = Env::write_file(path, damaged);
  if (spec_.kill) pull_the_plug();
  return ok;
}

}  // namespace falvolt::io
