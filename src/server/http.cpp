#include "server/http.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace dlap::server {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return &value;
  }
  return nullptr;
}

}  // namespace

// ------------------------------------------------------------- HttpRequest

const std::string* HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("Connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && iequals(*connection, "keep-alive");
  }
  return connection == nullptr || !iequals(*connection, "close");
}

// ------------------------------------------------------------ HttpResponse

void HttpResponse::set_header(std::string name, std::string value) {
  for (auto& [key, existing] : headers) {
    if (iequals(key, name)) {
      existing = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

const std::string* HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

std::string HttpResponse::serialize() const {
  const std::string_view reason = reason_phrase(status);
  const std::string code = std::to_string(status);
  bool have_length = false;
  std::size_t size = 0;
  for (const auto& [key, value] : headers) {
    if (iequals(key, "Content-Length")) have_length = true;
    size += key.size() + value.size() + 4;  // ": " and CRLF
  }
  const std::string length =
      have_length ? std::string() : std::to_string(body.size());
  // "HTTP/1.1 " code ' ' reason CRLF, headers, optional Content-Length
  // line, CRLF, body.
  size += 9 + code.size() + 1 + reason.size() + 2 +
          (have_length ? 0 : 16 + length.size() + 2) + 2 + body.size();
  std::string out;
  out.reserve(size);
  out += "HTTP/1.1 ";
  out += code;
  out += ' ';
  out += reason;
  out += "\r\n";
  for (const auto& [key, value] : headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!have_length) {
    out += "Content-Length: ";
    out += length;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Status";
  }
}

// -------------------------------------------------------------- HttpParser

void HttpParser::fail(int status, std::string message) {
  state_ = State::Error;
  error_status_ = status;
  error_message_ = std::move(message);
}

void HttpParser::reset() {
  state_ = State::RequestLine;
  request_ = {};
  line_.clear();
  header_bytes_ = 0;
  body_needed_ = 0;
  bytes_consumed_ = 0;
  error_status_ = 0;
  error_message_.clear();
}

std::size_t HttpParser::feed(std::string_view data) {
  std::size_t pos = 0;
  while (pos < data.size() && state_ != State::Complete &&
         state_ != State::Error) {
    if (state_ == State::Body) {
      const std::size_t take =
          std::min(data.size() - pos, body_needed_ - request_.body.size());
      request_.body.append(data.substr(pos, take));
      pos += take;
      if (request_.body.size() == body_needed_) state_ = State::Complete;
      continue;
    }
    // Line-oriented states: accumulate until LF (tolerating a bare LF;
    // the trailing CR is stripped below).
    const std::size_t nl = data.find('\n', pos);
    const std::size_t take =
        (nl == std::string_view::npos ? data.size() : nl) - pos;
    line_.append(data.substr(pos, take));
    pos += take;
    const std::size_t line_limit = state_ == State::RequestLine
                                       ? limits_.max_request_line
                                       : limits_.max_header_bytes;
    if (line_.size() > line_limit) {
      if (state_ == State::RequestLine) {
        fail(414, "request line exceeds " +
                      std::to_string(limits_.max_request_line) + " bytes");
      } else {
        fail(431, "header line exceeds " +
                      std::to_string(limits_.max_header_bytes) + " bytes");
      }
      break;
    }
    if (nl == std::string_view::npos) break;  // need more bytes
    ++pos;                                    // consume the LF
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (state_ == State::RequestLine) {
      on_request_line();
    } else {
      on_header_line();
    }
    line_.clear();
  }
  bytes_consumed_ += pos;
  return pos;
}

void HttpParser::on_request_line() {
  if (line_.empty()) return;  // ignore leading blank lines (RFC 9112 2.2)
  const std::size_t sp1 = line_.find(' ');
  const std::size_t sp2 = line_.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    fail(400, "malformed request line: '" + line_ + "'");
    return;
  }
  request_.method = line_.substr(0, sp1);
  request_.target = line_.substr(sp1 + 1, sp2 - sp1 - 1);
  request_.version = line_.substr(sp2 + 1);
  if (request_.method.empty() || request_.target.empty() ||
      request_.target.find(' ') != std::string::npos) {
    fail(400, "malformed request line: '" + line_ + "'");
    return;
  }
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
    fail(505, "unsupported version '" + request_.version + "'");
    return;
  }
  state_ = State::Headers;
}

void HttpParser::on_header_line() {
  if (line_.empty()) {
    finish_headers();
    return;
  }
  header_bytes_ += line_.size() + 2;
  if (header_bytes_ > limits_.max_header_bytes) {
    fail(431, "headers exceed " + std::to_string(limits_.max_header_bytes) +
                  " bytes");
    return;
  }
  if (request_.headers.size() >= limits_.max_headers) {
    fail(431,
         "more than " + std::to_string(limits_.max_headers) + " headers");
    return;
  }
  if (line_.front() == ' ' || line_.front() == '\t') {
    fail(400, "obsolete header line folding is not supported");
    return;
  }
  const std::size_t colon = line_.find(':');
  if (colon == std::string::npos || colon == 0) {
    fail(400, "malformed header line: '" + line_ + "'");
    return;
  }
  std::string name = line_.substr(0, colon);
  if (name.find(' ') != std::string::npos ||
      name.find('\t') != std::string::npos) {
    fail(400, "whitespace in header name: '" + name + "'");
    return;
  }
  request_.headers.emplace_back(
      std::move(name), std::string(trim_ows(
                           std::string_view(line_).substr(colon + 1))));
}

void HttpParser::finish_headers() {
  if (request_.header("Transfer-Encoding") != nullptr) {
    fail(501, "transfer-encoding is not supported; send Content-Length");
    return;
  }
  const std::string* length = request_.header("Content-Length");
  if (length == nullptr) {
    state_ = State::Complete;
    return;
  }
  if (length->empty() ||
      length->find_first_not_of("0123456789") != std::string::npos) {
    fail(400, "malformed Content-Length: '" + *length + "'");
    return;
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(length->c_str(), nullptr, 10);
  if (errno != 0 || parsed > limits_.max_body) {
    fail(413, "body of " + *length + " bytes exceeds the limit of " +
                  std::to_string(limits_.max_body));
    return;
  }
  body_needed_ = static_cast<std::size_t>(parsed);
  request_.body.reserve(body_needed_);
  state_ = body_needed_ == 0 ? State::Complete : State::Body;
}

}  // namespace dlap::server
