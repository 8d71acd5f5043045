// The content-addressed store's core contracts: correct SHA-256,
// prefix-free fingerprint framing, atomic/validated record IO that
// degrades every kind of damage to "miss", validated store unions, the
// URI-style store spec grammar, and the in-progress markers that keep
// sweep_merge from emitting tables while a sweep is mid-publish.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "store/fingerprint.h"
#include "store/hash.h"
#include "store/manifest.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace fs = std::filesystem;

namespace falvolt::store {
namespace {

TEST(Sha256, MatchesKnownVectors) {
  EXPECT_EQ(
      sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Multi-block input (> 64 bytes) exercises the block loop.
  EXPECT_EQ(
      sha256_hex(std::string(1000, 'a')),
      "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Sha256 h;
  h.update("ab");
  h.update("c");
  EXPECT_EQ(h.hex(), sha256_hex("abc"));
}

TEST(Fingerprinter, DeterministicAndFieldSensitive) {
  const auto fp = [](const std::string& key, std::int64_t epochs) {
    Fingerprinter f;
    f.add("key", key);
    f.add("epochs", epochs);
    return f.digest();
  };
  EXPECT_EQ(fp("a", 4), fp("a", 4));
  EXPECT_NE(fp("a", 4), fp("b", 4));
  EXPECT_NE(fp("a", 4), fp("a", 8));
  EXPECT_TRUE(is_fingerprint(fp("a", 4)));
}

TEST(Fingerprinter, FramingIsPrefixFree) {
  // ("ab","c") vs ("a","bc") and value-vs-name boundary shifts must all
  // hash differently — the length framing makes the stream unambiguous.
  Fingerprinter f1, f2, f3;
  f1.add("ab", std::string("c"));
  f2.add("a", std::string("bc"));
  f3.add("a", std::string("b"));
  f3.add("c", std::string(""));
  const std::string d1 = f1.digest();
  EXPECT_NE(d1, f2.digest());
  EXPECT_NE(d1, f3.digest());
}

TEST(Fingerprinter, TypesAreDistinguished) {
  Fingerprinter fs, fi;
  fs.add("x", std::string("1"));
  fi.add("x", std::int64_t{1});
  EXPECT_NE(fs.digest(), fi.digest());
}

TEST(Fingerprint, Validation) {
  EXPECT_TRUE(is_fingerprint(std::string(64, 'a')));
  EXPECT_FALSE(is_fingerprint(std::string(63, 'a')));
  EXPECT_FALSE(is_fingerprint(std::string(64, 'A')));  // lowercase only
  EXPECT_FALSE(is_fingerprint(std::string(64, 'g')));
  EXPECT_FALSE(is_fingerprint("../../../../etc/passwd"));
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "falvolt_store_test";
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static std::string fp_of(const std::string& seed) {
    return sha256_hex(seed);
  }

  std::string root_;
};

TEST_F(ResultStoreTest, PutGetRoundTrip) {
  LocalDirStore store(root_);
  const std::string fp = fp_of("cell1");
  EXPECT_FALSE(store.contains(fp));
  EXPECT_EQ(store.get(fp), std::nullopt);
  const std::string payload = "hello \0 binary\x7f payload";
  store.put(fp, payload);
  EXPECT_TRUE(store.contains(fp));
  EXPECT_EQ(store.get(fp), payload);
  // Overwrite is last-writer-wins (content-addressed stores only ever
  // see identical rewrites in practice).
  store.put(fp, "other");
  EXPECT_EQ(store.get(fp), "other");
}

TEST_F(ResultStoreTest, MalformedFingerprintThrows) {
  LocalDirStore store(root_);
  EXPECT_THROW(store.put("nope", "x"), std::invalid_argument);
  EXPECT_THROW(store.get("../escape"), std::invalid_argument);
}

TEST_F(ResultStoreTest, TruncatedRecordReadsAsMiss) {
  LocalDirStore store(root_);
  const std::string fp = fp_of("trunc");
  store.put(fp, std::string(256, 'x'));
  const std::string path = store.object_path(fp);
  for (const std::uintmax_t keep : {300u, 60u, 10u, 0u}) {
    fs::resize_file(path, keep);
    EXPECT_EQ(store.get(fp), std::nullopt) << "kept " << keep << " bytes";
  }
}

TEST_F(ResultStoreTest, TrailingGarbageReadsAsMiss) {
  LocalDirStore store(root_);
  const std::string fp = fp_of("tail");
  store.put(fp, "payload");
  std::ofstream out(store.object_path(fp),
                    std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_EQ(store.get(fp), std::nullopt);
}

TEST_F(ResultStoreTest, FlippedPayloadByteFailsChecksum) {
  LocalDirStore store(root_);
  const std::string fp = fp_of("flip");
  store.put(fp, std::string(64, 'y'));
  const std::string path = store.object_path(fp);
  // Flip one payload byte in place (the payload starts after the
  // 48-byte frame header).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(48 + 10);
  f.put('Z');
  f.close();
  EXPECT_EQ(store.get(fp), std::nullopt);
}

TEST_F(ResultStoreTest, ConcurrentWritersStayConsistent) {
  LocalDirStore store(root_);
  const std::string shared_fp = fp_of("shared");
  const std::string shared_payload(512, 's');
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  // Built by appending: GCC 12 flags the chained std::operator+ form
  // with a false-positive -Wrestrict.
  const auto private_fp = [](int t, int r) {
    std::string seed = "t";
    seed += std::to_string(t);
    seed += 'r';
    seed += std::to_string(r);
    return fp_of(seed);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        // Everyone hammers one shared cell (the multi-shard overlap
        // case) and writes private cells too.
        store.put(shared_fp, shared_payload);
        store.put(private_fp(t, r),
                  std::string(64, static_cast<char>('a' + t)));
        // Interleaved reads must never observe a torn record.
        const auto seen = store.get(shared_fp);
        ASSERT_TRUE(seen.has_value());
        ASSERT_EQ(*seen, shared_payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.get(shared_fp), shared_payload);
  EXPECT_EQ(store.fingerprints().size(), 1u + kThreads * kRounds);
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_TRUE(store.get(private_fp(t, r)));
    }
  }
}

TEST_F(ResultStoreTest, MergeUnionsAndSkipsCorrupt) {
  LocalDirStore a(root_ + "_a");
  LocalDirStore b(root_ + "_b");
  LocalDirStore dst(root_);
  a.put(fp_of("one"), "1");
  a.put(fp_of("both"), "same");
  b.put(fp_of("both"), "same");
  b.put(fp_of("two"), "2");
  b.put(fp_of("rot"), "will rot");
  fs::resize_file(b.object_path(fp_of("rot")), 20);  // corrupt in place

  const MergeStats sa = merge_records(dst, a);
  EXPECT_EQ(sa.copied, 2);
  EXPECT_EQ(sa.present, 0);
  EXPECT_EQ(sa.corrupt, 0);
  const MergeStats sb = merge_records(dst, b);
  EXPECT_EQ(sb.copied, 1);   // "two"
  EXPECT_EQ(sb.present, 1);  // "both"
  EXPECT_EQ(sb.corrupt, 1);  // "rot" skipped, not propagated
  EXPECT_EQ(dst.get(fp_of("one")), "1");
  EXPECT_EQ(dst.get(fp_of("two")), "2");
  EXPECT_EQ(dst.get(fp_of("both")), "same");
  EXPECT_FALSE(dst.contains(fp_of("rot")));
  fs::remove_all(root_ + "_a");
  fs::remove_all(root_ + "_b");
}

TEST_F(ResultStoreTest, ManifestRoundTripAndListing) {
  LocalDirStore store(root_);
  Manifest m;
  m.bench = "fig5b_fault_count";
  m.entries = {{sha256_hex("c0"), "MNIST/faulty=0/rep=0"},
               {sha256_hex("c1"), "key with spaces, and commas"}};
  write_manifest(store, m);

  const std::vector<std::string> found =
      list_manifests(store, "fig5b_fault_count");
  ASSERT_EQ(found.size(), 1u);
  const std::optional<Manifest> back = read_manifest(found.front());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bench, m.bench);
  EXPECT_EQ(back->entries, m.entries);
  EXPECT_EQ(back->grid_digest(), m.grid_digest());

  // A different grid of the same bench gets its own manifest file.
  Manifest m2 = m;
  m2.entries.emplace_back(sha256_hex("c2"), "extra");
  write_manifest(store, m2);
  EXPECT_EQ(list_manifests(store, "fig5b_fault_count").size(), 2u);
  EXPECT_TRUE(list_manifests(store, "other_bench").empty());
}

TEST_F(ResultStoreTest, TruncatedManifestIsRejected) {
  LocalDirStore store(root_);
  Manifest m;
  m.bench = "b";
  m.entries = {{sha256_hex("x"), "k0"}, {sha256_hex("y"), "k1"}};
  // Drop the last line: declared cell count no longer matches.
  std::string text = m.to_text();
  text.erase(text.rfind(sha256_hex("y")));
  EXPECT_EQ(parse_manifest(text), std::nullopt);
  EXPECT_EQ(parse_manifest("not a manifest"), std::nullopt);
  EXPECT_TRUE(parse_manifest(m.to_text()).has_value());
}

// ------------------------------------------------ store specs

TEST(StoreSpec, ParsesSchemesAndBarePaths) {
  StoreSpec spec = parse_store_spec("local:/a/b");
  EXPECT_EQ(spec.scheme, "local");
  EXPECT_EQ(spec.path, "/a/b");
  EXPECT_EQ(parse_store_spec("LOCAL:x").scheme, "local");
  EXPECT_EQ(parse_store_spec("segment:seg_dir").scheme, "segment");
  spec = parse_store_spec("/abs/path");
  EXPECT_EQ(spec.scheme, "");
  EXPECT_EQ(spec.path, "/abs/path");
  // A separator before any colon means "bare path", not a scheme.
  spec = parse_store_spec("rel/dir:with_colon");
  EXPECT_EQ(spec.scheme, "");
  EXPECT_EQ(spec.path, "rel/dir:with_colon");
}

TEST(StoreSpec, RejectsUnknownSchemesNamingTheSupportedOnes) {
  try {
    parse_store_spec("s3:bucket");
    FAIL() << "unknown scheme accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s3"), std::string::npos) << what;
    EXPECT_NE(what.find("local:"), std::string::npos) << what;
    EXPECT_NE(what.find("segment:"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_store_spec("local:"), std::invalid_argument);
}

// ------------------------------------------------ in-progress markers

TEST(InProgressGuard, MarksWhilePublishingAndGarbageCollectsDeadPids) {
  const std::string root =
      ::testing::TempDir() + "falvolt_inprogress_test";
  fs::remove_all(root);
  const std::string marker =
      root + "/tmp/inprogress." + std::to_string(::getpid());
  {
    InProgressGuard guard(root);
    EXPECT_TRUE(fs::exists(marker));
    // The caller's own marker is not "another fleet".
    EXPECT_TRUE(live_inprogress_pids(root).empty());
  }
  EXPECT_FALSE(fs::exists(marker));  // released on destruction

  // A marker from a SIGKILLed run (dead pid) is invisible AND unlinked,
  // so one crash never wedges future merges.
  const std::string dead = root + "/tmp/inprogress.999999999";
  std::ofstream(dead) << "999999999\n";
  EXPECT_TRUE(live_inprogress_pids(root).empty());
  EXPECT_FALSE(fs::exists(dead));

  // A marker from a LIVE foreign process (pid 1 always exists) is
  // reported and left alone.
  const std::string live = root + "/tmp/inprogress.1";
  std::ofstream(live) << "1\n";
  const std::vector<int> pids = live_inprogress_pids(root);
  ASSERT_EQ(pids.size(), 1u);
  EXPECT_EQ(pids[0], 1);
  EXPECT_TRUE(fs::exists(live));
  fs::remove_all(root);
}

}  // namespace
}  // namespace falvolt::store
