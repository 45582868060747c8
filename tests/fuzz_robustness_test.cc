// Randomised corruption ("poor man's fuzzing", deterministic seeds):
// every parser in the stack must reject arbitrary corruption with an
// error — never crash, hang, or silently return wrong data. Each suite
// takes a valid artefact, flips/truncates/splices random bytes, and
// feeds the result to the parser.

#include "common/clock.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "http/message.h"
#include "http/multipart.h"
#include "http/range.h"
#include "metalink/metalink.h"
#include "muxhttp/frame.h"
#include "net/byte_source.h"
#include "netsim/fault_injector.h"
#include "root/tree_format.h"
#include "test_util.h"
#include "xml/xml.h"

#include "gtest/gtest.h"

namespace davix {
namespace {

/// Applies one of several corruption operators to `data`.
std::string Corrupt(std::string data, Rng* rng) {
  if (data.empty()) return data;
  switch (rng->Below(4)) {
    case 0: {  // flip random bytes
      size_t flips = 1 + rng->Below(8);
      for (size_t i = 0; i < flips; ++i) {
        data[rng->Below(data.size())] ^=
            static_cast<char>(1 + rng->Below(255));
      }
      return data;
    }
    case 1:  // truncate
      return data.substr(0, rng->Below(data.size()));
    case 2: {  // splice a random block over a random position
      size_t pos = rng->Below(data.size());
      std::string garbage = rng->Bytes(1 + rng->Below(64));
      data.replace(pos, std::min(garbage.size(), data.size() - pos),
                   garbage);
      return data;
    }
    default: {  // duplicate a slice into the middle
      size_t from = rng->Below(data.size());
      size_t len = std::min<size_t>(1 + rng->Below(32), data.size() - from);
      data.insert(rng->Below(data.size()), data.substr(from, len));
      return data;
    }
  }
}

class CompressFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressFuzzTest, CorruptFramesNeverCrashOrLie) {
  Rng rng(GetParam());
  std::string original = rng.CompressibleBytes(2000 + rng.Below(4000));
  auto codec = static_cast<compress::CodecType>(1 + rng.Below(2));
  std::string frame = compress::Compress(codec, original);
  for (int round = 0; round < 20; ++round) {
    std::string corrupted = Corrupt(frame, &rng);
    Result<std::string> out = compress::Decompress(corrupted);
    // Either detected (the common case, via magic/size/crc) or — only if
    // the corruption kept the frame bit-exact semantics — identical.
    if (out.ok()) {
      EXPECT_EQ(*out, original);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

class TreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeFuzzTest, CorruptIndexRegionsRejected) {
  Rng rng(GetParam());
  root::TreeSpec spec;
  spec.n_events = 300;
  spec.events_per_basket = 50;
  spec.branches = {{"a", 4}, {"b", 16}};
  std::string file = root::BuildTreeFile(spec, GetParam());
  for (int round = 0; round < 20; ++round) {
    std::string corrupted = Corrupt(file, &rng);
    // Must never crash; may legitimately still parse if the corruption
    // hit basket payloads rather than the header/index.
    Result<root::TreeIndex> index = root::ParseTreeIndex(corrupted);
    if (index.ok()) {
      // Whatever parsed must still be internally consistent.
      EXPECT_LE(index->data_begin, index->file_size);
      for (const auto& branch : index->baskets) {
        for (const root::BasketInfo& basket : branch) {
          EXPECT_LE(basket.offset + basket.stored_length, index->file_size);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

// Directed record-level fuzzing of the tree header + basket index
// grammar: unlike TreeFuzzTest (whole-file corruption, most rounds land
// in basket payloads), every input here stresses the record parsers.
namespace {

root::TreeSpec SmallTreeSpec() {
  root::TreeSpec spec;
  spec.n_events = 200;
  spec.events_per_basket = 50;
  spec.branches = {{"a", 4}, {"b", 16}};
  return spec;
}

/// Overwrites `width` bytes at `pos` with a little-endian value, the
/// same encoding tree_format uses for its header fields.
void PokeField(std::string* file, size_t pos, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*file)[pos + i] = static_cast<char>(value >> (8 * i));
  }
}

}  // namespace

TEST(TreeRecordDirectedTest, EveryHeaderAndIndexTruncationErrorsCleanly) {
  std::string file = root::BuildTreeFile(SmallTreeSpec(), 1);
  uint64_t region = *root::TreeIndexRegionSize(file);
  ASSERT_GT(region, root::kTreeHeaderSize);
  // Every proper prefix of the header+index region must be a clean
  // error — records are bounds-checked, never over-read.
  for (size_t cut = 0; cut < region; ++cut) {
    EXPECT_FALSE(root::ParseTreeIndex(file.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes parsed";
    if (cut < root::kTreeHeaderSize) {
      EXPECT_FALSE(root::TreeIndexRegionSize(file.substr(0, cut)).ok());
    }
  }
  // The exact region parses — truncation detection is not over-eager.
  EXPECT_OK(root::ParseTreeIndex(file.substr(0, region)).status());
}

TEST(TreeRecordDirectedTest, OversizedDeclaredFieldsRejectedWithoutOverRead) {
  const std::string file = root::BuildTreeFile(SmallTreeSpec(), 1);
  // Header field offsets: n_events u64 @8, events_per_basket u32 @16,
  // n_branches u32 @21, file_size u64 @25, data_begin u64 @33.
  struct Mutation {
    size_t pos;
    uint64_t value;
    size_t width;
  } mutations[] = {
      {8, ~0ull, 8},          // n_events: astronomically many baskets
      {8, 1ull << 60, 8},     // n_events: capacity * 16 would overflow
      {16, 0, 4},             // events_per_basket: division by zero guard
      {21, ~0ull, 4},         // n_branches: far past the sanity cap
      {21, 4096, 4},          // n_branches: cap-compliant, table truncated
      {33, ~0ull, 8},         // data_begin: region beyond the input
      {33, 1ull << 40, 8},    // data_begin: plausible-looking but absent
  };
  for (const Mutation& mutation : mutations) {
    std::string mutated = file;
    PokeField(&mutated, mutation.pos, mutation.value, mutation.width);
    Result<root::TreeIndex> index = root::ParseTreeIndex(mutated);
    EXPECT_FALSE(index.ok()) << "field at " << mutation.pos << " = "
                             << mutation.value << " accepted";
  }
}

TEST(TreeRecordDirectedTest, WrappingBasketRecordBoundsRejected) {
  std::string file = root::BuildTreeFile(SmallTreeSpec(), 1);
  uint64_t region = *root::TreeIndexRegionSize(file);
  // First basket record sits at the end of the branch table; poke its
  // offset/stored_length with values whose sum wraps uint64 — the
  // subtraction-form bound check must still reject them.
  size_t branch_table = 0;
  for (const root::BranchSpec& branch : SmallTreeSpec().branches) {
    branch_table += 2 + branch.name.size() + 4;
  }
  size_t first_record = root::kTreeHeaderSize + branch_table;
  ASSERT_LT(first_record + 16, region);
  std::string wrapped = file;
  PokeField(&wrapped, first_record, ~0ull - 7, 8);      // offset near 2^64
  PokeField(&wrapped, first_record + 8, 64, 4);         // offset+len wraps
  EXPECT_FALSE(root::ParseTreeIndex(wrapped).ok());
  std::string outside = file;
  PokeField(&outside, first_record, file.size() + 1, 8);  // past file_size
  EXPECT_FALSE(root::ParseTreeIndex(outside).ok());
}

class TreeRecordFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeRecordFuzzTest, CorruptRecordRegionParsesCleanlyOrNotAtAll) {
  Rng rng(GetParam());
  std::string file = root::BuildTreeFile(SmallTreeSpec(), GetParam());
  uint64_t region = *root::TreeIndexRegionSize(file);
  for (int round = 0; round < 40; ++round) {
    // Corrupt only the header+index region, then offer the parser just
    // that region (plus whatever the truncation operator left) — every
    // round exercises record parsing, none is absorbed by payload bytes.
    std::string head = Corrupt(file.substr(0, region), &rng);
    Result<root::TreeIndex> index = root::ParseTreeIndex(head);
    if (!index.ok()) continue;
    // Whatever parsed must be internally consistent and re-parse to the
    // same shape (no read past the declared region, no flaky accepts).
    EXPECT_LE(index->spec.branches.size(), 4096u);
    for (const auto& branch : index->baskets) {
      for (const root::BasketInfo& basket : branch) {
        EXPECT_GE(basket.offset, index->data_begin);
        EXPECT_LE(basket.offset + basket.stored_length, index->file_size);
      }
    }
    Result<root::TreeIndex> again = root::ParseTreeIndex(head);
    ASSERT_OK(again.status());
    EXPECT_EQ(again->spec.branches.size(), index->spec.branches.size());
    EXPECT_EQ(again->data_begin, index->data_begin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRecordFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, CorruptDocumentsNeverCrash) {
  Rng rng(GetParam());
  metalink::MetalinkFile file;
  file.name = "fuzz.root";
  file.size = 12345;
  for (int i = 0; i < 3; ++i) {
    metalink::Replica replica;
    replica.url = "http://host" + std::to_string(i) + "/f";
    replica.priority = i + 1;
    file.replicas.push_back(replica);
  }
  std::string document = metalink::WriteMetalink(file);
  for (int round = 0; round < 30; ++round) {
    std::string corrupted = Corrupt(document, &rng);
    // Both layers must stay memory-safe.
    Result<std::unique_ptr<xml::XmlNode>> dom = xml::ParseXml(corrupted);
    Result<metalink::MetalinkFile> parsed =
        metalink::ParseMetalink(corrupted);
    if (parsed.ok()) {
      EXPECT_FALSE(parsed->replicas.empty());
    }
    (void)dom;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

class MultipartFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultipartFuzzTest, CorruptBodiesNeverCrash) {
  Rng rng(GetParam());
  std::vector<http::BytesPart> parts;
  for (int i = 0; i < 3; ++i) {
    http::BytesPart part;
    part.range = {static_cast<uint64_t>(i) * 1000, 100};
    part.total_size = 10'000;
    part.data = rng.Bytes(100);
    parts.push_back(std::move(part));
  }
  std::string boundary = http::GenerateBoundary(parts, GetParam());
  std::string body = http::BuildMultipartBody(parts, boundary);
  // Directed inputs: declared part lengths at the edges of uint64_t,
  // which `pos + length` arithmetic would wrap (the first one used to
  // loop forever).
  for (const char* directed :
       {"\r\n--B\r\nContent-Range: bytes 0-18446744073709551559/*\r\n\r\n",
        "--B\r\nContent-Range: bytes 0-18446744073709551614/*\r\n\r\nxx",
        "--B\r\nContent-Range: bytes 0-18446744073709551615/*\r\n\r\n"}) {
    EXPECT_FALSE(http::ParseMultipartBody(directed, "B").ok()) << directed;
  }
  for (int round = 0; round < 30; ++round) {
    std::string corrupted = Corrupt(body, &rng);
    Result<std::vector<http::BytesPart>> parsed =
        http::ParseMultipartBody(corrupted, boundary);
    if (parsed.ok()) {
      // Any accepted part must be self-consistent.
      for (const http::BytesPart& part : *parsed) {
        EXPECT_EQ(part.data.size(), part.range.length);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultipartFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

class RangeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeFuzzTest, ArbitraryHeaderValuesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    // Mix of near-valid and wild inputs.
    std::string value;
    if (rng.Chance(0.5)) {
      value = "bytes=";
      size_t n = rng.Below(5);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) value += ',';
        value += std::to_string(rng.Below(1000));
        value += rng.Chance(0.8) ? "-" : "";
        if (rng.Chance(0.7)) value += std::to_string(rng.Below(1000));
      }
    } else {
      value = std::string(rng.Bytes(rng.Below(40)));
    }
    (void)http::ParseRangeHeader(value, 1000);
    (void)http::ParseContentRange(value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

class RetryAfterFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RetryAfterFuzzTest, ArbitraryHeaderValuesNeverCrashOrGoNegative) {
  Rng rng(GetParam());
  const int64_t now = 1'000'000'000;  // epoch seconds, fixed for the test
  for (int round = 0; round < 200; ++round) {
    // Mix of near-valid delta-seconds, near-valid HTTP-dates, and wild
    // bytes.
    std::string value;
    switch (rng.Below(3)) {
      case 0:
        value = std::to_string(rng.Below(1'000'000));
        if (rng.Chance(0.3)) value += rng.Bytes(1 + rng.Below(4));
        if (rng.Chance(0.3)) value = " " + value + "\t";
        break;
      case 1:
        value = http::FormatHttpDate(
            now + static_cast<int64_t>(rng.Below(100'000)) - 50'000);
        if (rng.Chance(0.4)) value = Corrupt(value, &rng);
        break;
      default:
        value = rng.Bytes(rng.Below(40));
    }
    Result<int64_t> seconds = http::ParseRetryAfter(value, now);
    // Whatever parses must be a usable non-negative wait.
    if (seconds.ok()) {
      EXPECT_GE(*seconds, 0) << "value: " << value;
    }
  }
  // Deterministic anchors of the two grammars.
  EXPECT_EQ(*http::ParseRetryAfter("120", now), 120);
  EXPECT_EQ(*http::ParseRetryAfter(" 7 ", now), 7);
  EXPECT_EQ(*http::ParseRetryAfter(http::FormatHttpDate(now + 90), now), 90);
  // A date in the past means "retry now", never a negative sleep.
  EXPECT_EQ(*http::ParseRetryAfter(http::FormatHttpDate(now - 90), now), 0);
  EXPECT_FALSE(http::ParseRetryAfter("", now).ok());
  EXPECT_FALSE(http::ParseRetryAfter("soon", now).ok());
  EXPECT_FALSE(http::ParseRetryAfter("-5", now).ok());
  EXPECT_FALSE(http::ParseRetryAfter("99999999999", now).ok());  // overflow
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryAfterFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

class FaultWindowFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultWindowFuzzTest, RandomWindowedRulesNeverCrashAndGateCorrectly) {
  Rng rng(GetParam());
  netsim::FaultInjector injector(GetParam());
  // A rule whose window is far in the future must never fire; a rule
  // with an open-ended window (end == 0) always may.
  netsim::FaultRule future;
  future.path_prefix = "/";
  future.action = netsim::FaultAction::kServerError;
  future.window_start_micros = 3'600'000'000;  // an hour from the epoch
  future.window_end_micros = 7'200'000'000;
  injector.AddRule(future);
  // Random junk rules: arbitrary windows, probabilities, hit caps.
  for (int i = 0; i < 10; ++i) {
    netsim::FaultRule rule;
    rule.path_prefix = rng.Chance(0.5) ? "/" : std::string(rng.Bytes(3));
    rule.action = static_cast<netsim::FaultAction>(rng.Below(8));
    rule.probability = rng.Chance(0.5) ? 1.0 : 0.3;
    rule.max_hits = rng.Chance(0.5) ? -1 : static_cast<int64_t>(rng.Below(4));
    rule.window_start_micros = static_cast<int64_t>(rng.Below(2));
    rule.window_end_micros =
        rng.Chance(0.5) ? 0 : static_cast<int64_t>(rng.Below(100));
    injector.AddRule(rule);
  }
  for (int round = 0; round < 300; ++round) {
    netsim::FaultRule fired = injector.Decide("/some/path");
    // The far-future windowed rule can never be the one that fires.
    EXPECT_LT(fired.window_start_micros, 3'600'000'000);
  }
  // Rewinding the epoch re-arms relative windows deterministically: a
  // [0, 10 s) rule fires right after a reset.
  injector.Clear();
  netsim::FaultRule burst;
  burst.path_prefix = "/";
  burst.action = netsim::FaultAction::kRetryAfter;
  burst.retry_after_seconds = 2;
  burst.window_end_micros = 10'000'000;
  injector.AddRule(burst);
  injector.ResetWindowClock();
  netsim::FaultRule fired = injector.Decide("/f");
  EXPECT_EQ(fired.action, netsim::FaultAction::kRetryAfter);
  EXPECT_EQ(fired.retry_after_seconds, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultWindowFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

class MuxFrameFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MuxFrameFuzzTest, CorruptFrameStreamsNeverCrashOrOverRead) {
  // The mux frame decoder + demux state machine, fed the server's diet:
  // a valid interleaved multi-stream request sequence with random
  // corruption applied. Every outcome must be clean — a decoded
  // message, a per-stream error, or a connection-fatal error — and the
  // decoder must never fabricate bytes or walk past the input.
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::string wire;
    size_t streams = 1 + rng.Below(3);
    for (size_t s = 0; s < streams; ++s) {
      http::HttpRequest request;
      request.method = rng.Chance(0.5) ? http::Method::kGet
                                       : http::Method::kPut;
      request.target = "/fuzz/" + std::to_string(s);
      request.headers.Set("Host", "fuzz");
      std::string body = rng.Bytes(rng.Below(600));
      for (muxhttp::MuxFrame& frame : muxhttp::FrameMessage(
               static_cast<uint32_t>(s + 1),
               request.SerializeHead(body.size()), body,
               64 + rng.Below(200))) {
        wire += muxhttp::SerializeMuxFrame(frame);
      }
    }
    std::string corrupted = Corrupt(wire, &rng);
    net::StringSource source(corrupted);
    net::BufferedReader reader(&source);
    muxhttp::MuxStreamAssembler assembler(
        muxhttp::MuxStreamAssembler::Mode::kRequest);
    for (int frames = 0; frames < 10'000; ++frames) {
      auto frame = muxhttp::ReadMuxFrame(&reader);
      if (!frame.ok()) break;  // truncation / garbled header: clean error
      auto event = assembler.OnFrame(std::move(*frame));
      if (!event.ok()) break;  // connection-fatal: clean teardown
      if (event->has_value() && (*event)->request.has_value()) {
        // A message that survived must be carved from the input, never
        // invented: its body cannot exceed what went in.
        EXPECT_LE((*event)->request->body.size(), corrupted.size());
      }
    }
    EXPECT_LE(reader.bytes_consumed(), corrupted.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuxFrameFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

TEST(MuxFrameDirectedTest, EveryTruncationErrorsCleanly) {
  std::string wire =
      muxhttp::SerializeMuxFrame(7, muxhttp::MuxFrameType::kData, 0,
                                 "abcdef");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    net::StringSource source(wire.substr(0, cut));
    net::BufferedReader reader(&source);
    Result<muxhttp::MuxFrame> result = muxhttp::ReadMuxFrame(&reader);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(MuxFrameDirectedTest, OversizedLengthNeverConsumesPastHeader) {
  // Header claims ~4 GiB; 100 bytes of junk follow. The decoder must
  // reject on the declared length alone, consuming exactly the header.
  std::string wire =
      muxhttp::SerializeMuxFrame(1, muxhttp::MuxFrameType::kData, 0, "");
  wire[6] = wire[7] = wire[8] = wire[9] = static_cast<char>(0xFF);
  wire += std::string(100, 'x');
  net::StringSource source(wire);
  net::BufferedReader reader(&source);
  Result<muxhttp::MuxFrame> result = muxhttp::ReadMuxFrame(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(reader.bytes_consumed(), muxhttp::kMuxFrameHeaderSize);
}

TEST(MuxFrameDirectedTest, DuplicateStreamIdHeadersIsConnectionFatal) {
  muxhttp::MuxStreamAssembler assembler(
      muxhttp::MuxStreamAssembler::Mode::kRequest);
  http::HttpRequest request;
  request.method = http::Method::kPut;
  request.target = "/dup";
  std::string head = request.SerializeHead(64);
  ASSERT_OK(assembler.OnFrame({5, muxhttp::MuxFrameType::kHeaders, 0, head})
                .status());
  Result<std::optional<muxhttp::MuxStreamAssembler::Event>> dup =
      assembler.OnFrame({5, muxhttp::MuxFrameType::kHeaders, 0, head});
  EXPECT_FALSE(dup.ok());
}

TEST(MuxFrameDirectedTest, UnknownTypeAndFlagBitsRejected) {
  for (uint8_t type : {uint8_t{0}, uint8_t{4}, uint8_t{0x7F}, uint8_t{0xFF}}) {
    std::string wire =
        muxhttp::SerializeMuxFrame(3, muxhttp::MuxFrameType::kData, 0, "z");
    wire[4] = static_cast<char>(type);
    net::StringSource source(wire);
    net::BufferedReader reader(&source);
    EXPECT_EQ(muxhttp::ReadMuxFrame(&reader).status().code(),
              StatusCode::kProtocolError);
  }
  for (uint8_t flags : {uint8_t{0x02}, uint8_t{0x80}, uint8_t{0xFE}}) {
    std::string wire =
        muxhttp::SerializeMuxFrame(3, muxhttp::MuxFrameType::kData, 0, "z");
    wire[5] = static_cast<char>(flags);
    net::StringSource source(wire);
    net::BufferedReader reader(&source);
    EXPECT_EQ(muxhttp::ReadMuxFrame(&reader).status().code(),
              StatusCode::kProtocolError);
  }
}

}  // namespace
}  // namespace davix
