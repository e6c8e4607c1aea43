/**
 * @file
 * common::Arena unit tests: alignment guarantees, chunk growth that
 * preserves prior allocations, destructor registration order,
 * reset/reuse retaining the reservation, oversize requests, byte
 * accounting that keeps red zones apart, and — under AddressSanitizer
 * only — the red-zone and poison-on-reset checks that turn lifetime
 * bugs into immediate aborts.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/arena.h"

namespace hornet::common {
namespace {

bool
is_aligned(const void *p, std::size_t align)
{
    return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(Arena, AllocateRespectsAlignment)
{
    Arena a;
    for (std::size_t align : {1u, 2u, 8u, 16u, 64u, 256u}) {
        // Odd sizes force the cursor off-alignment between requests.
        void *p = a.allocate(3, 1);
        ASSERT_NE(p, nullptr);
        void *q = a.allocate(align, align);
        ASSERT_NE(q, nullptr);
        EXPECT_TRUE(is_aligned(q, align)) << "align " << align;
    }
}

TEST(Arena, ChunkGrowthPreservesContents)
{
    // Tiny chunks force many growths; earlier blocks must stay intact
    // (a bump allocator never moves what it handed out).
    Arena a(/*chunk_bytes=*/256);
    std::vector<unsigned char *> blocks;
    constexpr std::size_t kBlock = 64;
    for (unsigned i = 0; i < 100; ++i) {
        auto *p = static_cast<unsigned char *>(a.allocate(kBlock, 8));
        std::memset(p, static_cast<int>(i), kBlock);
        blocks.push_back(p);
    }
    EXPECT_GT(a.num_chunks(), 1u);
    for (unsigned i = 0; i < blocks.size(); ++i)
        for (std::size_t b = 0; b < kBlock; ++b)
            ASSERT_EQ(blocks[i][b], static_cast<unsigned char>(i));
}

struct OrderProbe
{
    static std::vector<int> destroyed;
    int id;
    explicit OrderProbe(int i) : id(i) {}
    ~OrderProbe() { destroyed.push_back(id); }
};
std::vector<int> OrderProbe::destroyed;

TEST(Arena, DestructorsRunInReverseOrderOnReset)
{
    OrderProbe::destroyed.clear();
    Arena a;
    a.make<OrderProbe>(1);
    a.make<OrderProbe>(2);
    a.make<OrderProbe>(3);
    EXPECT_TRUE(OrderProbe::destroyed.empty());
    a.reset();
    EXPECT_EQ(OrderProbe::destroyed, (std::vector<int>{3, 2, 1}));
}

TEST(Arena, DestructorsRunOnArenaDestruction)
{
    OrderProbe::destroyed.clear();
    {
        Arena a;
        a.make<OrderProbe>(7);
        a.make<OrderProbe>(8);
    }
    EXPECT_EQ(OrderProbe::destroyed, (std::vector<int>{8, 7}));
}

TEST(Arena, ResetRetainsReservationAndReusesChunks)
{
    Arena a(/*chunk_bytes=*/512);
    for (int i = 0; i < 50; ++i)
        a.allocate(64, 8);
    const std::size_t reserved = a.bytes_reserved();
    const std::size_t chunks = a.num_chunks();
    EXPECT_GT(a.bytes_used(), 0u);
    a.reset();
    EXPECT_EQ(a.bytes_used(), 0u);
    // The slabs are retained for the next generation...
    EXPECT_EQ(a.bytes_reserved(), reserved);
    EXPECT_EQ(a.num_chunks(), chunks);
    // ...and the next generation fills them instead of growing.
    for (int i = 0; i < 50; ++i)
        a.allocate(64, 8);
    EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, OversizeRequestGetsDedicatedChunk)
{
    Arena a(/*chunk_bytes=*/256);
    auto *p = static_cast<unsigned char *>(a.allocate(4096, 64));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 4096); // the whole request must be writable
    EXPECT_GE(a.bytes_reserved(), 4096u);
}

TEST(Arena, MakeArrayValueInitializes)
{
    Arena a;
    // Dirty the arena first so reused bytes are nonzero.
    auto *dirt = static_cast<unsigned char *>(a.allocate(1024, 1));
    std::memset(dirt, 0xff, 1024);
    a.reset();
    std::uint64_t *v = a.make_array<std::uint64_t>(100);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(v[i], 0u);
}

TEST(Arena, MakeForwardsConstructorArguments)
{
    struct Pair
    {
        int x;
        int y;
        Pair(int a_, int b_) : x(a_), y(b_) {}
    };
    Arena a;
    Pair *p = a.make<Pair>(3, 4);
    EXPECT_EQ(p->x, 3);
    EXPECT_EQ(p->y, 4);
}

#if defined(__SANITIZE_ADDRESS__)
#define HORNET_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HORNET_TEST_ASAN 1
#endif
#endif

TEST(Arena, BytesUsedExcludesRedZones)
{
    // bytes_used() is what callers asked for plus alignment padding in
    // every build; ASan red zones go to their own counter, so within
    // one chunk footprint bounds read the same under the sanitizer
    // (after a chunk switch the padding may differ slightly).
    Arena a;
    for (int i = 0; i < 4; ++i)
        a.allocate(24, 8);
    a.allocate(8, 64); // cursor 96 -> 128: 32 bytes of padding
    EXPECT_EQ(a.bytes_used(), 4 * 24 + 32 + 8u);
#ifdef HORNET_TEST_ASAN
    EXPECT_EQ(a.bytes_redzone(), 5 * 64u);
#else
    EXPECT_EQ(a.bytes_redzone(), 0u);
#endif
    a.reset();
    EXPECT_EQ(a.bytes_used(), 0u);
    EXPECT_EQ(a.bytes_redzone(), 0u);
}

#ifdef HORNET_TEST_ASAN
// Red zones separate adjacent allocations: writing one byte past a
// block must abort, not silently corrupt its neighbour. These tests
// only exist under ASan — without it the arena (by design) has no
// runtime checks on the hot path.
TEST(ArenaDeathTest, OutOfBoundsWriteAborts)
{
    EXPECT_DEATH(
        {
            Arena a;
            auto *p = static_cast<unsigned char *>(a.allocate(16, 8));
            p[16] = 1; // first red-zone byte
        },
        "");
}

TEST(ArenaDeathTest, UseAfterResetAborts)
{
    EXPECT_DEATH(
        {
            Arena a;
            auto *p = static_cast<unsigned char *>(a.allocate(16, 8));
            a.reset(); // poisons every retained chunk
            p[0] = 1;
        },
        "");
}
#endif // HORNET_TEST_ASAN

} // namespace
} // namespace hornet::common
