// The /v1/classify wire format.
//
// Request (POST body):
//   {"model":"<registry name>","inputs":["<hex>","<hex>",...]}
// Each input is the hex encoding of one observable — the output-difference
// bytes an oracle answers with (t=2: one ciphertext pair's difference) —
// and must be exactly input_bits/8 bytes for the named model.
//
// Response:
//   {"model":"...","config_hash":"...",
//    "predictions":[{"class":1,"probs":[0.31,0.69]},...]}
// One prediction per input, in request order: the argmax class (the
// difference index the distinguisher believes produced the observable, or
// the "random" verdict for a 2-class real-vs-random model) plus the full
// softmax distribution.  The body is a pure function of (model weights,
// inputs): probabilities come from the batched predict contract under
// which each row's output is independent of its batch, so batched and
// batch-size-1 serving return byte-identical bodies (pinned by
// bench/serving_saturation.cpp).
//
// Requests are read with util::json, then checked against exactly this
// shape — the serving plane's input is machine-generated, so unknown keys
// are rejected rather than skipped (fail loudly beats serving a request
// whose options were silently ignored).
#pragma once

#include <string>
#include <vector>

#include "nn/mat.hpp"

namespace mldist::serve {

struct ModelEntry;

struct ClassifyRequest {
  std::string model;
  std::vector<std::string> inputs_hex;
};

/// Parse a /v1/classify body.  Returns false with a client-facing message
/// in `error` on malformed JSON, missing/unknown keys or empty inputs.
bool parse_classify_request(const std::string& body, ClassifyRequest* out,
                            std::string* error);

/// Decode the hex inputs into one feature row per input (bit-unpacked, the
/// encoding every classifier in the repo consumes).  Returns false with a
/// message when an input is not valid hex of exactly input_bits/8 bytes.
bool decode_inputs(const std::vector<std::string>& inputs_hex,
                   std::size_t input_bits, nn::Mat* rows, std::string* error);

/// Render the response body for `probs` (one row per input, `classes`
/// softmax columns) as produced by Sequential::predict_proba.
std::string render_classify_response(const ModelEntry& entry,
                                     const nn::Mat& probs);

/// Everything one /v1/classify access-log line carries (DESIGN.md §16).
/// Inline rejections (400/404/503) log with batch_rows/queue_wait_ns = 0;
/// batched answers log after the forward with the real queue/batch shape.
struct AccessRecord {
  std::string model;              ///< "" when the body never parsed
  std::size_t rows = 0;           ///< inputs in the request
  std::size_t batch_rows = 0;     ///< rows of the batch that answered it
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t e2e_ns = 0;
  int status = 0;                 ///< HTTP status answered
  std::string request_id;
};

/// Emit exactly one structured JSONL line for a /v1/classify request via
/// obs::Logger (component "serve.access").  A request slower than
/// `slow_request_ms` (0 = off) logs at warn, which force-drains the logger
/// ring — the slow request is on the sink before anything else happens.
void log_access(const AccessRecord& rec, int slow_request_ms);

}  // namespace mldist::serve
