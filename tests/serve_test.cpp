// Serving daemon (src/serve, ISSUE 9): registry loading + identity hashes,
// the fixed-shape classify protocol, per-model batching with admission
// control (batches held mid-forward by a gate layer, not by timers), and
// the HTTP daemon end to end — including the acceptance pin that batched
// classification responses are byte-identical to batch-size-1 responses.
// Runs under the "serve" ctest label; keep it ASan-clean (fd ownership
// hand-off between the event loop and the batch workers is exactly the kind
// of code ASan exists for).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arch_zoo.hpp"
#include "core/model_io.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "obs/log.hpp"
#include "serve/batcher.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

// ---------------------------------------------------------------------------
// fixtures
// ---------------------------------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("mldist_serve_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Save an untrained model of `arch` into `dir`/`name`.nnb — serving only
/// needs the forward pass, so random init weights are fine and fast.
void save_test_model(const std::string& dir, const std::string& name,
                     const std::string& arch, std::size_t input_bits,
                     std::size_t classes, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::unique_ptr<nn::Sequential> model;
  if (arch == "default-mlp") {
    model = core::build_default_mlp(input_bits, classes, rng);
  } else if (arch.rfind("gohr-net/", 0) == 0) {
    model = core::build_gohr_net(input_bits, classes,
                                 core::gohr_net_depth(arch), rng);
  } else {
    model = core::build_architecture(arch, input_bits, classes, rng);
  }
  core::save_model(*model, arch, input_bits, classes,
                   dir + "/" + name + ".nnb");
}

struct HttpResult {
  int status = 0;
  std::string body;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

HttpResult read_response(int fd) {
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  HttpResult res;
  if (raw.rfind("HTTP/1.1 ", 0) == 0) res.status = std::atoi(raw.c_str() + 9);
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep != std::string::npos) res.body = raw.substr(sep + 4);
  return res;
}

HttpResult http_request(std::uint16_t port, const std::string& method,
                        const std::string& path, const std::string& body) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string req = method + " " + path +
                          " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                          std::to_string(body.size()) +
                          "\r\nConnection: close\r\n\r\n" + body;
  (void)::send(fd, req.data(), req.size(), 0);
  return read_response(fd);
}

HttpResult http_post(std::uint16_t port, const std::string& path,
                     const std::string& body) {
  return http_request(port, "POST", path, body);
}

HttpResult http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET", path, "");
}

std::string classify_body(const std::string& model,
                          const std::vector<std::string>& inputs) {
  std::string body = "{\"model\":\"" + model + "\",\"inputs\":[";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + inputs[i] + "\"";
  }
  return body + "]}";
}

/// Deterministic pseudo-random hex string of `bytes` bytes.
std::string hex_input(std::uint64_t seed, std::size_t bytes) {
  util::Xoshiro256 rng(seed);
  std::string hex;
  static const char* digits = "0123456789abcdef";
  for (std::size_t i = 0; i < bytes; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(rng.next_u64());
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(Registry, LoadsModelsSortedWithStableIdentity) {
  TempDir dir("registry");
  save_test_model(dir.path(), "b-speck", "gohr-net/1", 32, 2, 11);
  save_test_model(dir.path(), "a-gimli", "default-mlp", 128, 2, 12);

  serve::ModelRegistry registry;
  ASSERT_EQ(registry.load_dir(dir.path()), 2u);
  ASSERT_EQ(registry.size(), 2u);
  // Sorted by file name, so the listing is deterministic.
  EXPECT_EQ(registry.entries()[0].name, "a-gimli");
  EXPECT_EQ(registry.entries()[1].name, "b-speck");

  const serve::ModelEntry* e = registry.find("b-speck");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->arch, "gohr-net/1");
  EXPECT_EQ(e->input_bits, 32u);
  EXPECT_EQ(e->classes, 2u);
  EXPECT_GT(e->params, 0u);
  ASSERT_EQ(e->config_hash.size(), 8u);
  for (char c : e->config_hash) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << c;
  }
  EXPECT_EQ(registry.find("nope"), nullptr);

  std::string json_error;
  const std::string listing = registry.to_json();
  EXPECT_TRUE(util::json_validate(listing, &json_error)) << json_error;
  EXPECT_NE(listing.find("\"a-gimli\""), std::string::npos);
  EXPECT_NE(listing.find("\"b-speck\""), std::string::npos);

  // Reloading the same directory yields the same identity hash (the hash
  // covers name/arch/dims/topology, none of which changed).
  serve::ModelRegistry again;
  ASSERT_EQ(again.load_dir(dir.path()), 2u);
  EXPECT_EQ(again.find("b-speck")->config_hash, e->config_hash);
}

TEST(Registry, RejectsCorruptModelFile) {
  TempDir dir("corrupt");
  save_test_model(dir.path(), "m", "default-mlp", 32, 2, 13);
  const std::string path = dir.path() + "/m.nnb";
  // Flip one byte deep in the parameter payload: the CRC-32 footer check
  // must refuse to serve silently corrupted weights.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-64, std::ios::end);
    char b;
    f.read(&b, 1);
    f.seekp(-64, std::ios::end);
    b = static_cast<char>(b ^ 0x5a);
    f.write(&b, 1);
  }
  serve::ModelRegistry registry;
  EXPECT_THROW((void)registry.load_dir(dir.path()), std::runtime_error);
}

TEST(Registry, RejectsMissingDirectory) {
  serve::ModelRegistry registry;
  EXPECT_THROW((void)registry.load_dir("/no/such/dir"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------------

TEST(Protocol, ParsesWellFormedRequests) {
  serve::ClassifyRequest req;
  std::string error;
  ASSERT_TRUE(serve::parse_classify_request(
      "{\"model\":\"m\",\"inputs\":[\"00ff\",\"a1b2\"]}", &req, &error))
      << error;
  EXPECT_EQ(req.model, "m");
  ASSERT_EQ(req.inputs_hex.size(), 2u);
  EXPECT_EQ(req.inputs_hex[0], "00ff");
  EXPECT_EQ(req.inputs_hex[1], "a1b2");

  // Key order and whitespace are free.
  req = {};
  ASSERT_TRUE(serve::parse_classify_request(
      " { \"inputs\" : [ \"00\" ] , \"model\" : \"x\" } ", &req, &error))
      << error;
  EXPECT_EQ(req.model, "x");
  ASSERT_EQ(req.inputs_hex.size(), 1u);
}

TEST(Protocol, RejectsMalformedRequests) {
  const auto rejects = [](const std::string& body, const std::string& needle) {
    serve::ClassifyRequest req;
    std::string error;
    EXPECT_FALSE(serve::parse_classify_request(body, &req, &error)) << body;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "body: " << body << "\nerror: " << error;
  };
  rejects("", "expected a JSON object");
  rejects("garbage", "expected a JSON object");
  rejects("{}", "empty request object");
  rejects("{\"model\":\"m\"}", "missing or empty \"inputs\"");
  rejects("{\"inputs\":[\"00\"]}", "missing \"model\"");
  rejects("{\"model\":\"m\",\"inputs\":[]}", "missing or empty \"inputs\"");
  rejects("{\"model\":\"m\",\"inputs\":[1]}", "array of hex strings");
  rejects("{\"model\":1,\"inputs\":[\"00\"]}", "must be a string");
  rejects("{\"model\":\"m\",\"inputs\":[\"00\"],\"extra\":true}",
          "unknown key");
  rejects("{\"model\":\"m\",\"model\":\"m\",\"inputs\":[\"00\"]}",
          "duplicate \"model\"");
  rejects("{\"model\":\"m\",\"inputs\":[\"00\"]}x", "trailing content");
}

TEST(Protocol, DecodeInputsValidatesHexAndWidth) {
  nn::Mat rows;
  std::string error;
  ASSERT_TRUE(serve::decode_inputs({"00ff", "8001"}, 16, &rows, &error))
      << error;
  ASSERT_EQ(rows.rows(), 2u);
  ASSERT_EQ(rows.cols(), 16u);
  // "00ff": first byte 0x00 -> eight 0.0 floats, second byte 0xff -> eight
  // 1.0 floats (LSB-first bit unpacking, util::bits_to_floats).
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rows.row(0)[i], 0.0f);
    EXPECT_EQ(rows.row(0)[8 + i], 1.0f);
  }
  EXPECT_FALSE(serve::decode_inputs({"00"}, 16, &rows, &error));
  EXPECT_NE(error.find("model expects 2"), std::string::npos) << error;
  EXPECT_FALSE(serve::decode_inputs({"zz"}, 8, &rows, &error));
  EXPECT_FALSE(serve::decode_inputs({"0"}, 8, &rows, &error));  // odd length
}

// ---------------------------------------------------------------------------
// batcher
// ---------------------------------------------------------------------------

serve::ClassifyJob make_job(const serve::ModelEntry& entry, std::size_t rows,
                            std::uint64_t seed) {
  serve::ClassifyJob job;
  job.rows = rows;
  job.features.resize(rows * entry.input_bits);
  util::Xoshiro256 rng(seed);
  for (float& f : job.features) f = static_cast<float>(rng.next_u64() & 1);
  return job;
}

/// Test-only identity layer whose forward blocks until the test opens it.
/// The IR runs it as an opaque node inside the worker's batched
/// predict_proba, so a test can hold a batch mid-forward for as long as it
/// likes and queue jobs behind it, with no timer deciding anything.  Every
/// wait has a deadline, so a bug fails the test instead of hanging it.
class GateLayer : public nn::Layer {
 public:
  static constexpr auto kDeadline = std::chrono::seconds(10);

  nn::Mat forward(const nn::Mat& x, bool /*training*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    batch_rows_.push_back(x.rows());
    cv_.notify_all();
    cv_.wait_for(lock, kDeadline, [this] { return open_; });
    return x;
  }
  nn::Mat backward(const nn::Mat& grad_out) override { return grad_out; }
  std::string name() const override { return "gate"; }
  std::size_t output_size(std::size_t input_size) const override {
    return input_size;
  }

  /// Wait until `n` forwards have entered; false at the deadline.
  bool wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kDeadline,
                        [&] { return batch_rows_.size() >= n; });
  }
  /// Let every held and future forward through.
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Rows of each forward that entered, in order.
  std::vector<std::size_t> batch_rows() {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_rows_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::size_t> batch_rows_;
};

/// A servable entry built in memory, no registry or file: the gate, then
/// Dense(16->2).
struct GatedModel {
  GatedModel() {
    util::Xoshiro256 rng(0x9a7e);
    auto layer = std::make_unique<GateLayer>();
    gate = layer.get();
    entry.name = "gated";
    entry.arch = "gate+dense";
    entry.input_bits = 16;
    entry.classes = 2;
    entry.model = std::make_unique<nn::Sequential>();
    entry.model->add(std::move(layer));
    entry.model->add(std::make_unique<nn::Dense>(16, 2, rng));
  }

  serve::ModelEntry entry;
  GateLayer* gate = nullptr;  ///< owned by entry.model
};

TEST(Batcher, CoalescesConcurrentJobsIntoOneBatch) {
  GatedModel m;
  serve::ModelWorker worker(m.entry, serve::BatchOptions{});
  ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 30)));  // A
  ASSERT_TRUE(m.gate->wait_entered(1));                  // A is mid-forward
  for (int i = 1; i < 4; ++i) {                          // B, C, D queue
    ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 30 + i)));
  }
  m.gate->open();
  worker.stop();  // drains: every submitted job is answered
  EXPECT_EQ(worker.answered(), 4u);
  EXPECT_EQ(worker.batches(), 2u);
  EXPECT_EQ(m.gate->batch_rows(), (std::vector<std::size_t>{2, 6}));
}

TEST(Batcher, IdleWorkerRunsTheJobThatWokeItAlone) {
  GatedModel m;
  serve::ModelWorker worker(m.entry, serve::BatchOptions{});
  // A and B arrive back to back at an idle worker.  Whether its thread is
  // still starting, parked, or already woken by A, A runs alone: B's
  // batch must not depend on how fast the thread wakes.
  ASSERT_TRUE(worker.submit(make_job(m.entry, 1, 35)));  // A
  ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 36)));  // B
  ASSERT_TRUE(m.gate->wait_entered(1));
  EXPECT_EQ(m.gate->batch_rows(), (std::vector<std::size_t>{1}));
  m.gate->open();
  worker.stop();
  EXPECT_EQ(worker.answered(), 2u);
  EXPECT_EQ(m.gate->batch_rows(), (std::vector<std::size_t>{1, 2}));
}

TEST(Batcher, QueuedJobsSplitAtBatchMaxRows) {
  GatedModel m;
  serve::BatchOptions opt;
  opt.batch_max_rows = 4;
  serve::ModelWorker worker(m.entry, opt);
  ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 41)));  // A
  ASSERT_TRUE(m.gate->wait_entered(1));
  for (int i = 1; i < 4; ++i) {  // B, C, D: 2 rows each
    ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 41 + i)));
  }
  m.gate->open();
  worker.stop();
  // B+C fill the 4-row cap; D, which would overflow it, runs next on its
  // own instead of being split.
  EXPECT_EQ(worker.answered(), 4u);
  EXPECT_EQ(m.gate->batch_rows(), (std::vector<std::size_t>{2, 4, 2}));
}

TEST(Batcher, AdmissionControlBoundsQueueAndRequestSize) {
  GatedModel m;
  serve::BatchOptions opt;
  opt.batch_max_rows = 1024;
  opt.queue_max_rows = 4;
  serve::ModelWorker worker(m.entry, opt);

  EXPECT_FALSE(worker.submit(make_job(m.entry, 0, 50)));     // empty
  EXPECT_FALSE(worker.submit(make_job(m.entry, 2048, 51)));  // > batch_max_rows
  ASSERT_TRUE(worker.submit(make_job(m.entry, 1, 52)));      // A
  ASSERT_TRUE(m.gate->wait_entered(1));  // A held; the queue is empty again
  ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 53)));
  ASSERT_TRUE(worker.submit(make_job(m.entry, 2, 54)));      // queue now full
  EXPECT_FALSE(worker.submit(make_job(m.entry, 1, 55)));     // overflow -> 503
  m.gate->open();
  worker.stop();
  // Overload refuses new work; it never drops admitted work.
  EXPECT_EQ(worker.answered(), 3u);
  EXPECT_FALSE(worker.submit(make_job(m.entry, 1, 56)));     // stopped
}

// ---------------------------------------------------------------------------
// daemon end to end
// ---------------------------------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(const serve::ServeOptions& opt) {
    dir_ = std::make_unique<TempDir>("daemon");
    save_test_model(dir_->path(), "gohr", "gohr-net/2", 128, 2, 61);
    save_test_model(dir_->path(), "mlp", "default-mlp", 32, 2, 62);
    ASSERT_EQ(registry_.load_dir(dir_->path()), 2u);
    daemon_ = std::make_unique<serve::ServeDaemon>(registry_);
    std::string error;
    ASSERT_TRUE(daemon_->start(opt, &error)) << error;
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    if (daemon_) daemon_->stop();
  }

  std::unique_ptr<TempDir> dir_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::ServeDaemon> daemon_;
};

TEST_F(DaemonTest, ServesModelsClassifyAndErrors) {
  StartDaemon(serve::ServeOptions{});
  const std::uint16_t port = daemon_->port();

  const HttpResult models = http_get(port, "/v1/models");
  EXPECT_EQ(models.status, 200);
  std::string json_error;
  EXPECT_TRUE(util::json_validate(models.body, &json_error)) << json_error;
  EXPECT_NE(models.body.find("\"gohr\""), std::string::npos);
  EXPECT_NE(models.body.find("\"mlp\""), std::string::npos);

  const HttpResult ok =
      http_post(port, "/v1/classify",
                classify_body("gohr", {hex_input(1, 16), hex_input(2, 16)}));
  EXPECT_EQ(ok.status, 200);
  EXPECT_TRUE(util::json_validate(ok.body, &json_error))
      << json_error << "\n" << ok.body;
  EXPECT_NE(ok.body.find("\"predictions\":["), std::string::npos);
  EXPECT_NE(ok.body.find("\"config_hash\":\"" +
                         registry_.find("gohr")->config_hash + "\""),
            std::string::npos);

  // Error paths carry distinct statuses so clients can react.
  EXPECT_EQ(http_post(port, "/v1/classify",
                      classify_body("nope", {hex_input(3, 16)}))
                .status,
            404);
  EXPECT_EQ(http_post(port, "/v1/classify", "not json").status, 400);
  EXPECT_EQ(http_post(port, "/v1/classify",
                      classify_body("gohr", {"00ff"}))  // wrong width
                .status,
            400);
  EXPECT_EQ(http_post(port, "/v1/classify",
                      classify_body("gohr", {"zzzz"}))  // not hex
                .status,
            400);
  EXPECT_EQ(http_post(port, "/metrics", "x").status, 405);
  EXPECT_EQ(http_get(port, "/nope").status, 404);

  const HttpResult health = http_get(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"models\":2"), std::string::npos);

  const HttpResult metrics = http_get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("mldist_serve_requests_total"),
            std::string::npos);
  EXPECT_GE(daemon_->requests(), 8u);
}

// THE acceptance pin of the tentpole: a multi-row (batched GEMM) request
// and the same rows sent as separate batch-size-1 requests must produce
// byte-identical prediction objects.  Row independence of the forward pass
// plus deterministic %.6g rendering make coalescing invisible to clients.
TEST_F(DaemonTest, BatchedResponsesAreByteIdenticalToUnbatched) {
  StartDaemon(serve::ServeOptions{});
  const std::uint16_t port = daemon_->port();

  std::vector<std::string> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(hex_input(100 + i, 16));

  const HttpResult batched =
      http_post(port, "/v1/classify", classify_body("gohr", inputs));
  ASSERT_EQ(batched.status, 200);

  // Slice the batched predictions array into its per-row objects.
  const std::string key = "\"predictions\":[";
  const std::size_t start = batched.body.find(key);
  ASSERT_NE(start, std::string::npos);
  std::vector<std::string> batched_preds;
  std::size_t pos = start + key.size();
  while (batched.body[pos] == '{') {
    const std::size_t end = batched.body.find('}', pos);
    ASSERT_NE(end, std::string::npos);
    batched_preds.push_back(batched.body.substr(pos, end - pos + 1));
    pos = end + 1;
    if (batched.body[pos] == ',') ++pos;
  }
  ASSERT_EQ(batched_preds.size(), inputs.size());

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const HttpResult single =
        http_post(port, "/v1/classify", classify_body("gohr", {inputs[i]}));
    ASSERT_EQ(single.status, 200);
    const std::size_t s = single.body.find(key);
    ASSERT_NE(s, std::string::npos);
    const std::size_t e = single.body.find('}', s);
    const std::string single_pred =
        single.body.substr(s + key.size(), e - s - key.size() + 1);
    EXPECT_EQ(single_pred, batched_preds[i]) << "row " << i;
  }
}

TEST_F(DaemonTest, OverloadedQueueAnswers503) {
  serve::ServeOptions opt;
  opt.batch.batch_max_rows = 1024;
  opt.batch.queue_max_rows = 2;
  StartDaemon(opt);
  const std::uint16_t port = daemon_->port();

  // Three rows can never fit a two-row queue, so admission control refuses
  // the request however quickly the worker drains.
  const HttpResult overflow = http_post(
      port, "/v1/classify",
      classify_body("mlp",
                    {hex_input(300, 4), hex_input(301, 4), hex_input(302, 4)}));
  EXPECT_EQ(overflow.status, 503);
  EXPECT_GE(daemon_->rejected(), 1u);

  // A single request wider than batch_max_rows is a client error, not 503.
  serve::ServeOptions small;
  small.batch.batch_max_rows = 2;
  daemon_->stop();
  daemon_ = std::make_unique<serve::ServeDaemon>(registry_);
  std::string error;
  ASSERT_TRUE(daemon_->start(small, &error)) << error;
  const HttpResult too_wide = http_post(
      daemon_->port(), "/v1/classify",
      classify_body("mlp",
                    {hex_input(1, 4), hex_input(2, 4), hex_input(3, 4)}));
  EXPECT_EQ(too_wide.status, 400);
}

// ---------------------------------------------------------------------------
// per-request tracing: request ids + the structured access log (ISSUE 10)
// ---------------------------------------------------------------------------

/// Raw HTTP exchange keeping the response headers (read_response discards
/// them, and the request-id contract lives in a header).
std::string http_request_raw(std::uint16_t port, const std::string& path,
                             const std::string& body,
                             const std::string& extra_headers) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string req = "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n" +
                          extra_headers +
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\nConnection: close\r\n\r\n" + body;
  (void)::send(fd, req.data(), req.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return raw;
}

/// The value of `name` in a raw response's header block ("" when absent).
std::string response_header(const std::string& raw, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const std::size_t head_end = raw.find("\r\n\r\n");
  const std::size_t pos = raw.find(needle);
  if (pos == std::string::npos || pos > head_end) return {};
  const std::size_t start = pos + needle.size();
  return raw.substr(start, raw.find("\r\n", start) - start);
}

/// Redirect the global logger to a fresh temp file for one test, restoring
/// the stderr sink afterwards (the obs_test ScopedLogFile idiom).
class ScopedAccessLog {
 public:
  explicit ScopedAccessLog(const char* tag) {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("mldist_serve_access_") + tag + ".jsonl");
    std::filesystem::remove(path_);
    std::string error;
    EXPECT_TRUE(obs::Logger::global().set_file(path_.string(), &error))
        << error;
  }
  ~ScopedAccessLog() {
    obs::Logger::global().flush();
    obs::Logger::global().set_file("");
    std::filesystem::remove(path_);
  }

  std::vector<std::string> lines() const {
    obs::Logger::global().flush();
    std::vector<std::string> out;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out.push_back(line);
    }
    return out;
  }

 private:
  std::filesystem::path path_;
};

/// The expected generated id for the n-th header-less request of a daemon
/// seeded with `seed` — the documented ServeOptions contract.
std::string expected_rid(std::uint64_t seed, std::uint64_t n) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    util::derive_stream_seed(seed, n)));
  return buf;
}

TEST_F(DaemonTest, RequestIdIsEchoedVerbatim) {
  StartDaemon(serve::ServeOptions{});
  const std::string raw =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("mlp", {hex_input(500, 4)}),
                       "X-Request-Id: client-chose-this-42\r\n");
  EXPECT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << raw;
  EXPECT_EQ(response_header(raw, "X-Request-Id"), "client-chose-this-42");
}

TEST_F(DaemonTest, GeneratedRequestIdsAreSeededAndDeterministic) {
  serve::ServeOptions opt;
  opt.request_id_seed = 0xfeedbeef;
  StartDaemon(opt);
  // No X-Request-Id from the client: the daemon assigns ids from its seeded
  // counter stream — no clocks, so the sequence replays exactly.
  const std::string first =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("mlp", {hex_input(501, 4)}), "");
  const std::string second =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("mlp", {hex_input(502, 4)}), "");
  EXPECT_EQ(response_header(first, "X-Request-Id"),
            expected_rid(0xfeedbeef, 0));
  EXPECT_EQ(response_header(second, "X-Request-Id"),
            expected_rid(0xfeedbeef, 1));
}

TEST_F(DaemonTest, HostileRequestIdsAreSanitizedAndCapped) {
  StartDaemon(serve::ServeOptions{});
  // Quotes and backslashes would break the JSONL access line and header
  // framing; they come back as underscores.
  const std::string raw =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("mlp", {hex_input(503, 4)}),
                       "X-Request-Id: evil\"id\\x\r\n");
  EXPECT_EQ(response_header(raw, "X-Request-Id"), "evil_id_x");

  const std::string long_id(80, 'a');
  const std::string capped =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("mlp", {hex_input(504, 4)}),
                       "X-Request-Id: " + long_id + "\r\n");
  EXPECT_EQ(response_header(capped, "X-Request-Id"), std::string(64, 'a'));
}

TEST_F(DaemonTest, ErrorResponsesCarryTheRequestIdAndLogTheStatus) {
  StartDaemon(serve::ServeOptions{});
  ScopedAccessLog log("errors");
  const std::string raw =
      http_request_raw(daemon_->port(), "/v1/classify",
                       classify_body("no-such-model", {hex_input(505, 4)}),
                       "X-Request-Id: err-trace-1\r\n");
  EXPECT_EQ(raw.rfind("HTTP/1.1 404", 0), 0u) << raw;
  EXPECT_EQ(response_header(raw, "X-Request-Id"), "err-trace-1");
  // Inline rejections get an access line too — the trace has no holes.
  std::size_t hits = 0;
  for (const std::string& line : log.lines()) {
    if (line.find("\"request_id\":\"err-trace-1\"") == std::string::npos) {
      continue;
    }
    ++hits;
    std::string error;
    EXPECT_TRUE(util::json_validate(line, &error)) << error << "\n" << line;
    EXPECT_NE(line.find("\"component\":\"serve.access\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":404"), std::string::npos);
  }
  EXPECT_EQ(hits, 1u);
}

TEST(Batcher, SlowRequestsForceWarnLevelAccessLines) {
  GatedModel m;
  serve::BatchOptions opt;
  opt.slow_request_ms = 1;
  serve::ModelWorker worker(m.entry, opt);
  ScopedAccessLog log("slow");
  serve::ClassifyJob job = make_job(m.entry, 1, 506);
  job.request_id = "slow-1";
  ASSERT_TRUE(worker.submit(std::move(job)));
  ASSERT_TRUE(m.gate->wait_entered(1));
  // Held in the gate, the job cannot finish before this sleep ends: a lower
  // bound on its latency, five times the slow mark.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.gate->open();
  worker.stop();
  std::size_t hits = 0;
  for (const std::string& line : log.lines()) {
    if (line.find("\"request_id\":\"slow-1\"") == std::string::npos) continue;
    ++hits;
    EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"msg\":\"slow request\""), std::string::npos)
        << line;
  }
  EXPECT_EQ(hits, 1u);
}

TEST_F(DaemonTest, AccessLogBurstStaysWellFormedOnePerRequest) {
  StartDaemon(serve::ServeOptions{});
  ScopedAccessLog log("burst");
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const std::string rid = "burst-" + std::to_string(i);
      const std::string raw = http_request_raw(
          daemon_->port(), "/v1/classify",
          classify_body("mlp", {hex_input(600 + i, 4)}),
          "X-Request-Id: " + rid + "\r\n");
      if (raw.rfind("HTTP/1.1 200", 0) == 0 &&
          response_header(raw, "X-Request-Id") == rid) {
        ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);

  // Concurrent batched answering must still yield one whole JSONL line per
  // request: every line valid JSON, every id exactly once.
  const std::vector<std::string> lines = log.lines();
  std::string error;
  for (const std::string& line : lines) {
    ASSERT_TRUE(util::json_validate(line, &error)) << error << "\n" << line;
  }
  for (int i = 0; i < kClients; ++i) {
    const std::string needle =
        "\"request_id\":\"burst-" + std::to_string(i) + "\"";
    std::size_t hits = 0;
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) ++hits;
    }
    EXPECT_EQ(hits, 1u) << needle;
  }
}

TEST_F(DaemonTest, QueueDepthGaugeIsExportedAndInRunzDetail) {
  StartDaemon(serve::ServeOptions{});
  const std::uint16_t port = daemon_->port();
  // Registered at worker construction, so it is scrape-visible (value 0)
  // before any request arrives.
  const HttpResult metrics = http_get(port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("mldist_serve_model_mlp_queue_depth"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("mldist_serve_model_gohr_queue_depth"),
            std::string::npos);

  EXPECT_EQ(http_post(port, "/v1/classify",
                      classify_body("mlp", {hex_input(700, 4)}))
                .status,
            200);
  const HttpResult runz = http_get(port, "/runz");
  ASSERT_EQ(runz.status, 200);
  std::string error;
  EXPECT_TRUE(util::json_validate(runz.body, &error)) << error;
  EXPECT_NE(runz.body.find("\"phase\":\"serve\""), std::string::npos);
  // Per-model serving detail: both models listed with their live gauges.
  EXPECT_NE(runz.body.find("\"model\":\"mlp\""), std::string::npos);
  EXPECT_NE(runz.body.find("\"model\":\"gohr\""), std::string::npos);
  EXPECT_NE(runz.body.find("\"queue_depth\":"), std::string::npos);
}

TEST_F(DaemonTest, StopDrainsAndIsIdempotent) {
  StartDaemon(serve::ServeOptions{});
  const std::uint16_t port = daemon_->port();
  EXPECT_EQ(http_post(port, "/v1/classify",
                      classify_body("mlp", {hex_input(400, 4)}))
                .status,
            200);
  daemon_->stop();
  EXPECT_FALSE(daemon_->running());
  daemon_->stop();  // idempotent
  // The port is released (close-on-exec fds, no lingering owner).
  EXPECT_LT(connect_loopback(port), 0);
}

}  // namespace
