#include "io/page_file.h"

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32c.h"
#include "io/env.h"

namespace rased {
namespace {

class PageFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name = "pages") {
    return env::JoinPath(dir_.path(), name);
  }

  TempDir dir_{"pagefile-test"};
};

TEST_F(PageFileTest, CreateWriteReadRoundTrip) {
  auto file = PageFile::Create(Path(), 256);
  ASSERT_TRUE(file.ok());
  auto& pf = *file.value();
  EXPECT_EQ(pf.page_size(), 256u);
  EXPECT_EQ(pf.payload_size(), 252u);
  EXPECT_EQ(pf.num_pages(), 0u);

  auto page = pf.AllocatePage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value(), 1u);

  std::string payload = "cube payload";
  ASSERT_TRUE(pf.WritePage(page.value(), payload.data(), payload.size()).ok());

  std::vector<char> buf(pf.payload_size());
  ASSERT_TRUE(pf.ReadPage(page.value(), buf.data()).ok());
  EXPECT_EQ(std::string(buf.data(), payload.size()), payload);
  // The rest is zero-filled.
  for (size_t i = payload.size(); i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], 0) << i;
  }
}

TEST_F(PageFileTest, CreateFailsIfExists) {
  ASSERT_TRUE(PageFile::Create(Path(), 256).ok());
  EXPECT_FALSE(PageFile::Create(Path(), 256).ok());
}

TEST_F(PageFileTest, OpenMissingFails) {
  EXPECT_FALSE(PageFile::Open(Path("absent")).ok());
}

TEST_F(PageFileTest, RejectsTinyPageSize) {
  auto file = PageFile::Create(Path(), 16);
  EXPECT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsInvalidArgument());
}

TEST_F(PageFileTest, PersistsAcrossReopen) {
  {
    auto file = PageFile::Create(Path(), 128);
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 5; ++i) {
      auto page = file.value()->AllocatePage();
      ASSERT_TRUE(page.ok());
      std::string payload = "page-" + std::to_string(i);
      ASSERT_TRUE(file.value()
                      ->WritePage(page.value(), payload.data(), payload.size())
                      .ok());
    }
  }  // destructor syncs
  auto reopened = PageFile::Open(Path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->page_size(), 128u);
  EXPECT_EQ(reopened.value()->num_pages(), 5u);
  std::vector<char> buf(reopened.value()->payload_size());
  ASSERT_TRUE(reopened.value()->ReadPage(3, buf.data()).ok());
  EXPECT_EQ(std::string(buf.data(), 6), "page-2");
}

TEST_F(PageFileTest, OutOfRangePageRejected) {
  auto file = PageFile::Create(Path(), 128);
  ASSERT_TRUE(file.ok());
  std::vector<char> buf(file.value()->payload_size());
  EXPECT_TRUE(file.value()->ReadPage(1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(file.value()->ReadPage(kInvalidPageId, buf.data()).IsOutOfRange());
  EXPECT_TRUE(file.value()->WritePage(7, "x", 1).IsOutOfRange());
}

TEST_F(PageFileTest, OversizedPayloadRejected) {
  auto file = PageFile::Create(Path(), 128);
  ASSERT_TRUE(file.ok());
  auto page = file.value()->AllocatePage();
  ASSERT_TRUE(page.ok());
  std::string big(file.value()->payload_size() + 1, 'x');
  EXPECT_TRUE(file.value()
                  ->WritePage(page.value(), big.data(), big.size())
                  .IsInvalidArgument());
}

TEST_F(PageFileTest, DetectsCorruptedPage) {
  PageId page;
  {
    auto file = PageFile::Create(Path(), 128);
    ASSERT_TRUE(file.ok());
    auto p = file.value()->AllocatePage();
    ASSERT_TRUE(p.ok());
    page = p.value();
    ASSERT_TRUE(file.value()->WritePage(page, "good data", 9).ok());
  }
  // Flip a byte in the page body on disk.
  {
    std::fstream f(Path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(page * 128 + 3));
    char evil = 'X';
    f.write(&evil, 1);
  }
  auto file = PageFile::Open(Path());
  ASSERT_TRUE(file.ok());
  std::vector<char> buf(file.value()->payload_size());
  EXPECT_TRUE(file.value()->ReadPage(page, buf.data()).IsCorruption());
}

TEST_F(PageFileTest, DetectsCorruptedHeader) {
  { ASSERT_TRUE(PageFile::Create(Path(), 128).ok()); }
  {
    std::fstream f(Path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(9);
    char evil = 0x7f;
    f.write(&evil, 1);
  }
  EXPECT_FALSE(PageFile::Open(Path()).ok());
}

TEST_F(PageFileTest, RejectsSeedFormatV1Header) {
  { ASSERT_TRUE(PageFile::Create(Path(), 128).ok()); }
  // Rewrite the header as a v1 file's, with a valid checksum: only the
  // version makes it unreadable.
  {
    std::fstream f(Path(), std::ios::binary | std::ios::in | std::ios::out);
    unsigned char header[28];
    f.read(reinterpret_cast<char*>(header), sizeof(header));
    const uint32_t version = 1;
    std::memcpy(header + 4, &version, 4);
    const uint32_t crc = Crc32c(header, 24);
    std::memcpy(header + 24, &crc, 4);
    f.seekp(0);
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  auto file = PageFile::Open(Path());
  ASSERT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsNotSupported()) << file.status().ToString();
  EXPECT_NE(file.status().ToString().find("v1"), std::string::npos)
      << file.status().ToString();
}

TEST_F(PageFileTest, ReadPagesReturnsAdjacentRunWithChecksums) {
  auto file = PageFile::Create(Path(), 128);
  ASSERT_TRUE(file.ok());
  auto& pf = *file.value();
  for (int i = 0; i < 4; ++i) {
    auto page = pf.AllocatePage();
    ASSERT_TRUE(page.ok());
    std::string payload = "run-" + std::to_string(i);
    ASSERT_TRUE(pf.WritePage(page.value(), payload.data(), payload.size()).ok());
  }

  // Raw page images (checksum trailers included) at page_size() stride.
  std::vector<unsigned char> pages(3 * pf.page_size());
  ASSERT_TRUE(pf.ReadPages(2, 3, pages.data()).ok());
  for (int i = 0; i < 3; ++i) {
    std::string expect = "run-" + std::to_string(i + 1);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(
                              pages.data() + static_cast<size_t>(i) * 128),
                          expect.size()),
              expect);
  }
}

TEST_F(PageFileTest, ReadPagesRejectsOutOfRangeRun) {
  auto file = PageFile::Create(Path(), 128);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->AllocatePage().ok());
  std::vector<unsigned char> pages(2 * file.value()->page_size());
  // Run extends past the last allocated page.
  EXPECT_TRUE(file.value()->ReadPages(1, 2, pages.data()).IsOutOfRange());
  EXPECT_TRUE(
      file.value()->ReadPages(kInvalidPageId, 1, pages.data()).IsOutOfRange());
  // Empty run is a no-op.
  EXPECT_TRUE(file.value()->ReadPages(1, 0, pages.data()).ok());
}

TEST_F(PageFileTest, ReadPagesDetectsCorruptionAnywhereInRun) {
  PageId first;
  {
    auto file = PageFile::Create(Path(), 128);
    ASSERT_TRUE(file.ok());
    auto p1 = file.value()->AllocatePage();
    ASSERT_TRUE(p1.ok());
    first = p1.value();
    auto p2 = file.value()->AllocatePage();
    ASSERT_TRUE(p2.ok());
    ASSERT_TRUE(file.value()->WritePage(first, "one", 3).ok());
    ASSERT_TRUE(file.value()->WritePage(p2.value(), "two", 3).ok());
  }
  // Corrupt the *second* page of the run.
  {
    std::fstream f(Path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>((first + 1) * 128 + 1));
    char evil = 'X';
    f.write(&evil, 1);
  }
  auto file = PageFile::Open(Path());
  ASSERT_TRUE(file.ok());
  std::vector<unsigned char> pages(2 * file.value()->page_size());
  EXPECT_TRUE(file.value()->ReadPages(first, 2, pages.data()).IsCorruption());
}

TEST_F(PageFileTest, FreshPageReadsAsZeros) {
  auto file = PageFile::Create(Path(), 128);
  ASSERT_TRUE(file.ok());
  auto page = file.value()->AllocatePage();
  ASSERT_TRUE(page.ok());
  std::vector<char> buf(file.value()->payload_size(), 'x');
  ASSERT_TRUE(file.value()->ReadPage(page.value(), buf.data()).ok());
  for (char c : buf) EXPECT_EQ(c, 0);
}

}  // namespace
}  // namespace rased
