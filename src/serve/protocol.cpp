#include "serve/protocol.hpp"

#include <stdexcept>

#include "obs/log.hpp"
#include "serve/registry.hpp"
#include "util/bits.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"

namespace mldist::serve {

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool parse_classify_request(const std::string& body, ClassifyRequest* out,
                            std::string* error) {
  using util::json::Value;
  Value root;
  util::json::Error parse_error;
  if (!util::json::parse(body, root, &parse_error)) {
    const std::size_t first = body.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || body[first] != '{') {
      return fail(error, "expected a JSON object");
    }
    return fail(error, "malformed JSON at " + parse_error.str());
  }
  if (root.kind != Value::Kind::kObject) {
    return fail(error, "expected a JSON object");
  }
  if (root.members.empty()) return fail(error, "empty request object");
  bool have_model = false;
  bool have_inputs = false;
  for (auto& [key, value] : root.members) {
    if (key == "model") {
      if (have_model) return fail(error, "duplicate \"model\" key");
      if (value.kind != Value::Kind::kString) {
        return fail(error, "\"model\" must be a string");
      }
      out->model = std::move(value.text);
      have_model = true;
    } else if (key == "inputs") {
      if (have_inputs) return fail(error, "duplicate \"inputs\" key");
      const char* const want = "\"inputs\" must be an array of hex strings";
      if (value.kind != Value::Kind::kArray) return fail(error, want);
      for (Value& item : value.items) {
        if (item.kind != Value::Kind::kString) return fail(error, want);
        out->inputs_hex.push_back(std::move(item.text));
      }
      have_inputs = true;
    } else {
      return fail(error, "unknown key \"" + key +
                             "\" (expected \"model\" and \"inputs\")");
    }
  }
  if (!have_model) return fail(error, "missing \"model\"");
  if (!have_inputs || out->inputs_hex.empty()) {
    return fail(error, "missing or empty \"inputs\"");
  }
  return true;
}

bool decode_inputs(const std::vector<std::string>& inputs_hex,
                   std::size_t input_bits, nn::Mat* rows,
                   std::string* error) {
  const std::size_t bytes_needed = input_bits / 8;
  *rows = nn::Mat(inputs_hex.size(), input_bits);
  for (std::size_t i = 0; i < inputs_hex.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    try {
      bytes = util::from_hex(inputs_hex[i]);
    } catch (const std::invalid_argument& e) {
      if (error != nullptr) {
        *error = "inputs[" + std::to_string(i) + "]: " + e.what();
      }
      return false;
    }
    if (bytes.size() != bytes_needed) {
      if (error != nullptr) {
        *error = "inputs[" + std::to_string(i) + "]: got " +
                 std::to_string(bytes.size()) + " bytes, model expects " +
                 std::to_string(bytes_needed);
      }
      return false;
    }
    util::bits_to_floats(bytes, rows->row(i));
  }
  return true;
}

std::string render_classify_response(const ModelEntry& entry,
                                     const nn::Mat& probs) {
  std::vector<std::string> predictions;
  predictions.reserve(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const float* row = probs.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < probs.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    std::vector<std::string> prob_items;
    prob_items.reserve(probs.cols());
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      prob_items.push_back(util::JsonBuilder::number(row[c]));
    }
    util::JsonBuilder pred;
    pred.field("class", static_cast<std::uint64_t>(best))
        .raw("probs", util::JsonBuilder::array(prob_items));
    predictions.push_back(pred.str());
  }
  util::JsonBuilder j;
  j.field("model", entry.name)
      .field("config_hash", entry.config_hash)
      .raw("predictions", util::JsonBuilder::array(predictions));
  return j.str();
}

void log_access(const AccessRecord& rec, int slow_request_ms) {
  const bool slow =
      slow_request_ms > 0 &&
      rec.e2e_ns >=
          static_cast<std::uint64_t>(slow_request_ms) * 1'000'000ull;
  obs::LogRecord line = slow ? obs::log_warn("serve.access", "slow request")
                             : obs::log_info("serve.access", "request");
  line.field("method", "POST")
      .field("path", "/v1/classify")
      .field("model", rec.model)
      .field("rows", static_cast<std::uint64_t>(rec.rows))
      .field("batch", static_cast<std::uint64_t>(rec.batch_rows))
      .field("queue_wait_ns", rec.queue_wait_ns)
      .field("e2e_ns", rec.e2e_ns)
      .field("status", rec.status)
      .field("request_id", rec.request_id);
}

}  // namespace mldist::serve
