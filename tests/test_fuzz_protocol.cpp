// Seeded mutation fuzzing of the serve protocol's input path.
//
// A fixed seed mutates the golden frames of test_serve.cpp and
// test_serve_session.cpp — bit flips, truncations, splices, huge and
// non-finite number literals, deep nesting, long strings — and feeds
// the mutants to every layer a hostile client reaches:
//
//   Json::parse        throws nothing but otem::SimError, and whatever
//                      it accepts dumps to a document it reads back to
//                      the same bytes;
//   parse_request      throws nothing but otem::SimError;
//   FrameReader        yields exactly the newline-delimited frames of
//                      the byte stream, however the stream is split
//                      across reads, each oversized frame once;
//   Server::handle_line
//                      answers every frame with one JSON line: ok, or
//                      an error from the protocol's closed set of codes
//                      other than internal.
//                      Every frame that starts a mission carries a small
//                      deadline_ms, so the suite's run time is bounded.
//
// Nothing here is random at run time: a failure reproduces from the
// printed frame. A frame that once broke a contract is kept below as a
// named regression case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "serve/codec.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace otem::serve {
namespace {

/// The golden frames: every method, ids of each JSON type, deadlines,
/// the cache and hex flags, overrides of each value type, and session
/// traffic against the ids a fresh daemon hands out (s1, s2, ...).
const std::vector<std::string>& golden_frames() {
  static const std::vector<std::string> frames = {
      R"({"schema":"otem.serve.v1","method":"ping","id":"t1"})",
      R"({"schema":"otem.serve.v1","method":"ping","id":{"trace":[1,2.5,null,true]}})",
      R"({"schema":"otem.serve.v1","method":"frobnicate"})",
      R"({"schema":"otem.serve.v1","method":"methods"})",
      R"({"schema":"otem.serve.v1","method":"metrics"})",
      R"({"schema":"otem.serve.v1","method":"stats","id":7})",
      R"({"schema":"otem.serve.v1","method":"run","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":30}})",
      R"({"schema":"otem.serve.v1","method":"run","cache":"bypass","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":900,"repeats":100}})",
      R"({"schema":"otem.serve.v1","method":"run","overrides":{"repeats":2,"soak":true,"ambient_k":2.5,"cycle":"US06"}})",
      R"({"schema":"otem.serve.v1","method":"run","id":"client-7","deadline_ms":2500,"cache":"bypass","hex_doubles":true,"overrides":{"method":"dual","cycle":"NYCC","soe0":55,"ambient_k":303.15}})",
      R"({"schema":"otem.serve.v1","method":"run","overrides":{"method":"parallel","repeats":"1e18"}})",
      R"({"schema":"otem.serve.v1","method":"session.open","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":30}})",
      R"({"schema":"otem.serve.v1","method":"session.open","overrides":{"method":"active_cooling","cycle":"US06","t_battery0_k":305,"soc0":80}})",
      R"({"schema":"otem.serve.v1","method":"session.step","session":"s1"})",
      R"({"schema":"otem.serve.v1","method":"session.step","session":"s1","p_request_w":25000.5})",
      R"({"schema":"otem.serve.v1","method":"session.step","session":"s2","p_request_w":-18000})",
      R"({"schema":"otem.serve.v1","method":"session.close","session":"s1","hex_doubles":true})",
      R"({"schema":"otem.serve.v1","method":"session.close","session":"s999"})",
  };
  return frames;
}

/// Seeded mutations over a frame corpus.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One to three mutations of a random corpus frame.
  std::string next(const std::vector<std::string>& corpus) {
    std::string frame = pick(corpus);
    const std::uint64_t rounds = 1 + rng_.below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (rng_.below(8)) {
        case 0: frame = flip_bits(frame); break;
        case 1: frame = truncate(frame); break;
        case 2: frame = splice(frame, pick(corpus)); break;
        case 3: frame = replace_number(frame); break;
        case 4: frame = nest(frame); break;
        case 5: frame = long_string(frame); break;
        case 6: frame = insert_token(frame); break;
        default: frame = replace_number(frame); break;
      }
    }
    return frame;
  }

  std::uint64_t below(std::uint64_t n) { return rng_.below(n); }

 private:
  const std::string& pick(const std::vector<std::string>& corpus) {
    return corpus[rng_.below(corpus.size())];
  }

  size_t position(const std::string& s) {
    return static_cast<size_t>(rng_.below(s.size() + 1));
  }

  std::string flip_bits(std::string s) {
    if (s.empty()) return s;
    const std::uint64_t flips = 1 + rng_.below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      s[rng_.below(s.size())] ^= static_cast<char>(1u << rng_.below(8));
    return s;
  }

  std::string truncate(const std::string& s) { return s.substr(0, position(s)); }

  std::string splice(const std::string& a, const std::string& b) {
    return a.substr(0, position(a)) + b.substr(position(b));
  }

  /// Replace one number literal (or, failing that, insert one) with a
  /// hostile one: past a double's range, past 2^53 or 2^63, NaN and
  /// infinity spellings JSON does not have, huge counts.
  std::string replace_number(const std::string& s) {
    static const char* const kNumbers[] = {
        "1e308",  "-1e308", "1e400",   "-1e400", "1e-400", "NaN",
        "nan",    "-nan",   "Infinity", "-Infinity", "inf", "1e15",
        "1e12",   "4194305", "10000000", "9007199254740993",
        "9223372036854775808", "-9223372036854775809", "-0", "0",
        "-1",     "0.000001", "2147483648", "1e9",
        "123456789012345678901234567890", "1.7976931348623157e308",
        "4.9e-324", "00012", "1.", ".5", "+3", "0x10", "1e", "--1"};
    std::string out = s;
    std::vector<std::pair<size_t, size_t>> spans;
    for (size_t i = 0; i < s.size();) {
      if ((s[i] >= '0' && s[i] <= '9') || s[i] == '-') {
        size_t j = i + 1;
        while (j < s.size() &&
               ((s[j] >= '0' && s[j] <= '9') || s[j] == '.' || s[j] == 'e' ||
                s[j] == 'E' || s[j] == '+' || s[j] == '-'))
          ++j;
        spans.emplace_back(i, j - i);
        i = j;
      } else {
        ++i;
      }
    }
    const char* number = kNumbers[rng_.below(std::size(kNumbers))];
    if (spans.empty()) return out.insert(position(out), number);
    const auto [at, len] = spans[rng_.below(spans.size())];
    return out.replace(at, len, number);
  }

  /// Wrap a value position in brackets or braces, around and past the
  /// parser's depth guard.
  std::string nest(const std::string& s) {
    static const size_t kDepths[] = {8, 63, 64, 65, 1000, 100000};
    const size_t depth = kDepths[rng_.below(std::size(kDepths))];
    const bool arrays = rng_.below(2) == 0;
    std::string open, close;
    for (size_t d = 0; d < depth; ++d) {
      open += arrays ? "[" : "{\"k\":";
      close += arrays ? "]" : "}";
    }
    const size_t colon = s.find(':', position(s));
    const size_t at = colon == std::string::npos ? position(s) : colon + 1;
    return s.substr(0, at) + open + "1" + close + s.substr(at);
  }

  /// Grow a string literal: plain bytes, escapes, lone surrogates,
  /// control characters and invalid UTF-8.
  std::string long_string(const std::string& s) {
    static const char* const kPieces[] = {
        "a", "\\u0000", "\\ud800", "\\udc00x", "\\\\", "\\\"", "\x01",
        "\xc3\xa9", "\xff\xfe", "\\n", "\\u12", "\\x"};
    static const size_t kLengths[] = {1, 100, 5000, 300000};
    const char* piece = kPieces[rng_.below(std::size(kPieces))];
    const size_t n = kLengths[rng_.below(std::size(kLengths))];
    std::string grown;
    for (size_t i = 0; i < n; ++i) grown += piece;
    const size_t quote = s.find('"', position(s));
    const size_t at = quote == std::string::npos ? position(s) : quote + 1;
    return s.substr(0, at) + grown + s.substr(at);
  }

  std::string insert_token(const std::string& s) {
    static const char* const kTokens[] = {
        "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "null",
        "true", "\"deadline_ms\":", "\"overrides\":{}", "\"id\":",
        "" /* a NUL byte */, "\x80", "\t\r"};
    std::string out = s;
    const size_t at = position(out);
    const char* token = kTokens[rng_.below(std::size(kTokens))];
    if (token[0] == '\0') return out.insert(at, 1, '\0');
    return out.insert(at, token);
  }

  Rng rng_;
};

/// The protocol's closed set of error codes.
const std::set<std::string>& error_codes() {
  static const std::set<std::string> codes = [] {
    std::set<std::string> out;
    for (ErrorCode code :
         {ErrorCode::kBadRequest, ErrorCode::kUnknownMethod,
          ErrorCode::kOversizedFrame, ErrorCode::kOverloaded,
          ErrorCode::kDraining, ErrorCode::kDeadlineExceeded,
          ErrorCode::kCancelled, ErrorCode::kUnknownSession,
          ErrorCode::kSessionLimit, ErrorCode::kInternal})
      out.insert(to_string(code));
    return out;
  }();
  return codes;
}

/// The reply contract: one JSON line, ok with a result, or a protocol
/// error code with a message. Returns the code ("ok" on success).
std::string reply_code(const std::string& frame, const std::string& reply) {
  const auto fail = [&frame, &reply](const char* why) {
    ADD_FAILURE() << why << "\n  frame: " << frame.substr(0, 400)
                  << "\n  reply: " << reply.substr(0, 400);
    return std::string("contract");
  };
  if (reply.find('\n') != std::string::npos) return fail("multi-line reply");
  Json doc;
  try {
    doc = Json::parse(reply);
  } catch (const SimError&) {
    return fail("reply is not JSON");
  }
  const Json* schema = doc.find("schema");
  const Json* ok = doc.find("ok");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema || ok == nullptr || !ok->is_bool())
    return fail("reply lacks schema or ok");
  if (ok->as_bool()) {
    if (doc.find("result") == nullptr) return fail("ok reply lacks result");
    return "ok";
  }
  const Json* error = doc.find("error");
  const Json* message = doc.find("message");
  if (error == nullptr || !error->is_string() ||
      error_codes().count(error->as_string()) == 0 || message == nullptr ||
      !message->is_string())
    return fail("error reply outside the protocol's codes");
  // internal names a failure the daemon did not foresee; a client
  // frame, however hostile, is refused as its own fault.
  if (error->as_string() == to_string(ErrorCode::kInternal))
    return fail("internal error on a client frame");
  return error->as_string();
}

/// A mission-starting frame gets a small deadline: the first run that
/// parses as a request is re-dumped with deadline_ms = 10.
std::string with_small_deadline(const std::string& frame) {
  Json doc;
  try {
    doc = Json::parse(frame);
  } catch (const SimError&) {
    return frame;
  }
  const Json* method = doc.find("method");
  if (!doc.is_object() || method == nullptr || !method->is_string() ||
      method->as_string() != "run")
    return frame;
  doc.set("deadline_ms", 10.0);
  return doc.dump(0);
}

ServerOptions fuzz_options() {
  ServerOptions opts;
  opts.threads = 2;
  opts.queue_depth = 4;
  opts.cache_bytes = 1u << 20;
  opts.drain_timeout_s = 0.0;
  opts.session_limit = 4;
  return opts;
}

// --- the fuzz passes ---------------------------------------------------------

TEST(ProtocolFuzz, JsonParseThrowsOnlySimErrorAndRoundTripsWhatItAccepts) {
  Mutator mutator(0x5EED0001);
  size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string frame = mutator.next(golden_frames());
    try {
      const Json doc = Json::parse(frame);
      ++accepted;
      const std::string once = doc.dump(0);
      EXPECT_EQ(Json::parse(once).dump(0), once) << frame.substr(0, 400);
    } catch (const SimError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "Json::parse threw " << e.what() << " on "
                    << frame.substr(0, 400);
    }
  }
  // The mutants exercise both sides of the parser.
  EXPECT_GT(accepted, 1000u);
  EXPECT_LT(accepted, 19000u);
}

TEST(ProtocolFuzz, ParseRequestThrowsOnlySimError) {
  Mutator mutator(0x5EED0002);
  size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string frame = mutator.next(golden_frames());
    try {
      (void)parse_request(frame);
      ++accepted;
    } catch (const SimError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse_request threw " << e.what() << " on "
                    << frame.substr(0, 400);
    }
  }
  EXPECT_GT(accepted, 500u);
}

TEST(ProtocolFuzz, FrameReaderSplitsAnyChunkingIntoTheSameFrames) {
  // The mutants, newline-joined into one byte stream (mutants may carry
  // newlines of their own), written through a pipe in seeded chunks of
  // 1 byte to 8 KiB. Lines up to the ceiling are frames; each longer
  // line is one kOversized; an unterminated tail is dropped at EOF.
  constexpr size_t kMaxFrame = 4096;
  Mutator mutator(0x5EED0003);
  std::string stream;
  for (int i = 0; i < 3000; ++i) {
    stream += mutator.next(golden_frames());
    stream += '\n';
  }
  stream += "{\"unterminated\":";

  std::vector<std::string> expected;
  size_t oversized_expected = 0;
  for (size_t begin = 0;;) {
    const size_t nl = stream.find('\n', begin);
    if (nl == std::string::npos) break;
    if (nl - begin > kMaxFrame)
      ++oversized_expected;
    else
      expected.push_back(stream.substr(begin, nl - begin));
    begin = nl + 1;
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<size_t> chunks;
  for (size_t off = 0; off < stream.size();) {
    const size_t n = std::min<size_t>(stream.size() - off,
                                      1 + mutator.below(mutator.below(4) == 0
                                                            ? 8192
                                                            : 64));
    chunks.push_back(n);
    off += n;
  }
  std::thread writer([&] {
    size_t off = 0;
    for (size_t n : chunks) {
      size_t done = 0;
      while (done < n) {
        const ssize_t w = ::write(fds[1], stream.data() + off + done, n - done);
        if (w <= 0) break;
        done += static_cast<size_t>(w);
      }
      off += n;
    }
    ::close(fds[1]);
  });

  FrameReader reader(fds[0], kMaxFrame);
  std::vector<std::string> frames;
  size_t oversized = 0;
  for (;;) {
    std::string line;
    const FrameReader::Status status = reader.next(line, 1000);
    if (status == FrameReader::Status::kFrame) {
      frames.push_back(line);
    } else if (status == FrameReader::Status::kOversized) {
      ++oversized;
    } else if (status != FrameReader::Status::kNoData) {
      EXPECT_EQ(status, FrameReader::Status::kEof);
      break;
    }
  }
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(oversized, oversized_expected);
  ASSERT_EQ(frames.size(), expected.size());
  for (size_t i = 0; i < frames.size(); ++i)
    ASSERT_EQ(frames[i], expected[i]) << "frame " << i;
  EXPECT_GT(oversized_expected, 0u);
}

TEST(ProtocolFuzz, HandleLineAnswersEveryFrameWithOneProtocolLine) {
  Server server(fuzz_options());
  Mutator mutator(0x5EED0004);
  std::map<std::string, size_t> codes;
  for (const std::string& frame : golden_frames())
    ++codes[reply_code(frame, server.handle_line(with_small_deadline(frame)))];
  for (int i = 0; i < 2500; ++i) {
    const std::string frame = with_small_deadline(mutator.next(golden_frames()));
    std::string reply;
    try {
      reply = server.handle_line(frame);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "handle_line threw " << e.what() << " on "
                    << frame.substr(0, 400);
      continue;
    }
    ++codes[reply_code(frame, reply)];
  }
  // The run covers successes and refusals alike.
  EXPECT_GT(codes["ok"], 50u);
  EXPECT_GT(codes["bad_request"], 500u);
  for (const auto& [code, n] : codes)
    std::printf("  %-18s %zu\n", code.c_str(), n);
}

// --- regression cases --------------------------------------------------------

// Mutants the HandleLine pass produced while a frame could ask for any
// mission size: each answered internal (std::bad_alloc, or
// vector::reserve's length error for a repeat count past the vector's
// range) after trying to allocate the route. They are refused as
// bad_request before anything is allocated. Run only against a build
// that has the mission-size caps, or under an address-space limit.
TEST(ProtocolFuzz, RegressionMissionSizeMutantsAreBadRequests) {
  Server server(fuzz_options());
  for (const char* frame : {
           R"({"schema":"otem.serve.v1","method":"run","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":9.22337203685e+18},"deadline_ms":10})",
           R"({"schema":"otem.serve.v1","method":"run","cache":"bypass","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":900,"repeats":10000000},"deadline_ms":10})",
           R"({"schema":"otem.serve.v1","method":"session.open","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":9007199254740993}})",
           R"({"schema":"otem.serve.v1","method":"run","cache":"bypass","overrides":{"method":"parallel","synthetkc":true,"synthetic_duration_s":900,"repeats":9.00719925474e+15},"deadline_ms":10})",
           R"({"schema":"otem.serve.v1","method":"run","cache":"bypass","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":1e+12,"repeats":100},"deadline_ms":10})",
           R"({"schema":"otem.serve.v1","method":"run","cache":"bypass","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":2147483648,"repeats":2147483648},"deadline_ms":10})",
           R"({"schema":"otem.serve.v1","method":"session.open","overrides":{"method":"parallel","synthetic":true,"synthetic_duration_s":1.7976931348623157e308}})",
       })
    EXPECT_EQ(reply_code(frame, server.handle_line(frame)), "bad_request");
}

}  // namespace
}  // namespace otem::serve
