#include "core/content_store.hpp"

#include <gtest/gtest.h>

#include "broadcast/signature.hpp"
#include "core/wire.hpp"

namespace oddci::core {
namespace {

TEST(ContentStore, PutGetRoundTripThroughWireBytes) {
  ContentStore store;
  ControlMessage m;
  m.type = ControlType::kWakeup;
  m.instance = 3;
  m.image = {1, "image-1", util::Bits::from_megabytes(2)};
  m.sign_with(0xAB);
  const auto id = store.put_control(m);
  const auto got = store.get_control(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->instance, 3u);
  EXPECT_EQ(got->image.name, "image-1");
  EXPECT_TRUE(got->verify_with(0xAB));  // signature survives the encoding
  EXPECT_EQ(store.size(), 1u);
  // The stored representation really is the wire encoding.
  const std::string* bytes = store.get_bytes(id);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(*bytes, wire::encode(m));
}

TEST(ContentStore, IdsAreUniqueAndNonZero) {
  ContentStore store;
  ControlMessage m;
  const auto a = store.put_control(m);
  const auto b = store.put_control(m);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST(ContentStore, UnknownIdReturnsNullopt) {
  ContentStore store;
  EXPECT_FALSE(store.get_control(42).has_value());
  EXPECT_EQ(store.get_bytes(42), nullptr);
  EXPECT_EQ(store.get_control_shared(42), nullptr);
}

TEST(ContentStore, SharedControlIsDecodedOnceAndPrepared) {
  ContentStore store;
  ControlMessage m;
  m.type = ControlType::kWakeup;
  m.instance = 9;
  m.sign_with(0xAB);
  const auto id = store.put_control(m);

  const auto prepared = store.get_control_shared(id);
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->message.instance, 9u);
  // Canonical bytes and digest were computed once, at preparation time.
  EXPECT_EQ(prepared->canonical, m.canonical_bytes());
  EXPECT_EQ(prepared->digest, broadcast::content_digest(prepared->canonical));
  EXPECT_TRUE(prepared->verify_with(0xAB));
  EXPECT_FALSE(prepared->verify_with(0xCD));
  // Every subsequent reader shares the same decoded object: the memo turns
  // per-receiver decodes into one decode per broadcast.
  EXPECT_EQ(store.get_control_shared(id).get(), prepared.get());
}

TEST(ContentStore, MemoizedVerifyAgreesWithPerMessageDecodeAndVerify) {
  // The agents' memoized verify must reach the verdict a receiver decoding
  // and verifying the message on its own would reach, on the cache miss
  // and on the hit that follows.
  constexpr broadcast::SigningKey kTrusted = 0xAB;
  struct Case {
    const char* name;
    broadcast::SigningKey signer;
    bool tamper;
    bool accepted;
  };
  const Case cases[] = {
      {"signed", kTrusted, false, true},
      {"tampered", kTrusted, true, false},
      {"wrong key", 0xCD, false, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ContentStore store;
    broadcast::VerifyCache cache;
    ControlMessage m;
    m.type = ControlType::kWakeup;
    m.instance = 5;
    m.probability = 0.25;
    m.sign_with(c.signer);
    if (c.tamper) m.probability = 1.0;  // edited after signing
    const auto id = store.put_control(m);

    const auto decoded = store.get_control(id);
    ASSERT_TRUE(decoded.has_value());
    const bool reference = decoded->verify_with(kTrusted);
    EXPECT_EQ(reference, c.accepted);
    const auto prepared = store.get_control_shared(id);
    ASSERT_NE(prepared, nullptr);
    EXPECT_EQ(prepared->verify_with(kTrusted, cache), reference);
    EXPECT_EQ(cache.misses().value(), 1u);
    EXPECT_EQ(prepared->verify_with(kTrusted, cache), reference);
    EXPECT_EQ(cache.hits().value(), 1u);
  }
}

TEST(ContentStore, EncoderWriterIsReusedAcrossPuts) {
  ContentStore store;
  ControlMessage m;
  m.instance = 1;
  const auto a = store.put_control(m);
  EXPECT_EQ(store.writer_reuses().value(), 0u);  // first encode allocates
  m.instance = 2;
  const auto b = store.put_control(m);
  EXPECT_EQ(store.writer_reuses().value(), 1u);
  // Reuse never corrupts the stored bytes.
  EXPECT_EQ(store.get_control(a)->instance, 1u);
  EXPECT_EQ(store.get_control(b)->instance, 2u);
}

TEST(ContentStore, RemoveDropsPreparedMemo) {
  ContentStore store;
  ControlMessage m;
  const auto id = store.put_control(m);
  ASSERT_NE(store.get_control_shared(id), nullptr);
  EXPECT_TRUE(store.remove(id));
  EXPECT_EQ(store.get_control_shared(id), nullptr);
}

TEST(ContentStore, StoredCopyIsIndependent) {
  ContentStore store;
  ControlMessage m;
  m.instance = 1;
  const auto id = store.put_control(m);
  m.instance = 2;  // mutate the original
  EXPECT_EQ(store.get_control(id)->instance, 1u);
}

TEST(ContentStore, RemoveDropsBlob) {
  ContentStore store;
  ControlMessage m;
  const auto id = store.put_control(m);
  EXPECT_TRUE(store.remove(id));
  EXPECT_FALSE(store.remove(id));
  EXPECT_FALSE(store.get_control(id).has_value());
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace oddci::core
