#include "seq/cigar.hpp"

#include <cctype>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace pimwfa::seq {

Cigar Cigar::from_ops(std::string ops) {
  for (char op : ops) {
    PIMWFA_ARG_CHECK(is_cigar_op(op), "invalid CIGAR op '" << op << "'");
  }
  Cigar cigar;
  cigar.ops_ = std::move(ops);
  return cigar;
}

Cigar Cigar::from_rle(std::string_view rle) {
  Cigar cigar;
  usize i = 0;
  while (i < rle.size()) {
    usize run = 0;
    bool has_digits = false;
    while (i < rle.size() && std::isdigit(static_cast<unsigned char>(rle[i]))) {
      const usize digit = static_cast<usize>(rle[i] - '0');
      PIMWFA_ARG_CHECK(run <= (std::numeric_limits<usize>::max() - digit) / 10,
                       "CIGAR run count overflows");
      run = run * 10 + digit;
      has_digits = true;
      ++i;
    }
    PIMWFA_ARG_CHECK(i < rle.size(), "CIGAR RLE ends with a bare count");
    const char op = rle[i++];
    PIMWFA_ARG_CHECK(is_cigar_op(op), "invalid CIGAR op '" << op << "'");
    if (!has_digits) run = 1;
    PIMWFA_ARG_CHECK(run > 0, "zero-length CIGAR run");
    PIMWFA_ARG_CHECK(run <= cigar.ops_.max_size() - cigar.ops_.size(),
                     "CIGAR run of " << run << " exceeds the maximum length");
    cigar.ops_.append(run, op);
  }
  return cigar;
}

void CigarBuilder::reserve(usize max_ops) {
  if (buf_.size() < max_ops) buf_.resize(max_ops);
  front_ = buf_.size();
}

Cigar CigarBuilder::finish() {
  Cigar cigar;
  cigar.ops_ = std::string(buf_.data() + front_, size());
  front_ = buf_.size();
  return cigar;
}

void CigarBuilder::overflow(usize n) const {
  std::ostringstream oss;
  oss << "CigarBuilder overflow: prepending " << n << " ops with room for "
      << front_ << " (reserve() too small)";
  throw Error(oss.str());
}

std::string Cigar::to_rle() const {
  std::string out;
  usize i = 0;
  while (i < ops_.size()) {
    const char op = ops_[i];
    usize run = 0;
    while (i < ops_.size() && ops_[i] == op) {
      ++run;
      ++i;
    }
    out += std::to_string(run);
    out.push_back(op);
  }
  return out;
}

usize Cigar::count(char op) const noexcept {
  usize total = 0;
  for (char c : ops_) total += (c == op) ? 1 : 0;
  return total;
}

usize Cigar::pattern_length() const noexcept {
  usize total = 0;
  for (char c : ops_) total += (c != 'I') ? 1 : 0;  // M, X, D consume pattern
  return total;
}

usize Cigar::text_length() const noexcept {
  usize total = 0;
  for (char c : ops_) total += (c != 'D') ? 1 : 0;  // M, X, I consume text
  return total;
}

usize Cigar::edit_distance() const noexcept {
  return size() - matches();
}

i64 Cigar::affine_score(i32 mismatch, i32 gap_open, i32 gap_extend) const noexcept {
  i64 score = 0;
  char prev = '\0';
  for (char op : ops_) {
    switch (op) {
      case 'X':
        score += mismatch;
        break;
      case 'I':
      case 'D':
        if (op != prev) score += gap_open;
        score += gap_extend;
        break;
      default:
        break;  // 'M' is free
    }
    prev = op;
  }
  return score;
}

double Cigar::identity() const noexcept {
  if (ops_.empty()) return 0.0;
  return static_cast<double>(matches()) / static_cast<double>(ops_.size());
}

void Cigar::validate(std::string_view pattern, std::string_view text) const {
  usize v = 0;
  usize h = 0;
  for (usize i = 0; i < ops_.size(); ++i) {
    const char op = ops_[i];
    switch (op) {
      case 'M':
        PIMWFA_CHECK(v < pattern.size() && h < text.size(),
                     "CIGAR overruns sequences at op " << i);
        PIMWFA_CHECK(pattern[v] == text[h],
                     "CIGAR claims match at pattern[" << v << "]='"
                         << pattern[v] << "' vs text[" << h << "]='" << text[h]
                         << "'");
        ++v;
        ++h;
        break;
      case 'X':
        PIMWFA_CHECK(v < pattern.size() && h < text.size(),
                     "CIGAR overruns sequences at op " << i);
        PIMWFA_CHECK(pattern[v] != text[h],
                     "CIGAR claims mismatch on equal bases at pattern[" << v
                         << "] vs text[" << h << "]");
        ++v;
        ++h;
        break;
      case 'I':
        PIMWFA_CHECK(h < text.size(), "CIGAR insertion overruns text");
        ++h;
        break;
      case 'D':
        PIMWFA_CHECK(v < pattern.size(), "CIGAR deletion overruns pattern");
        ++v;
        break;
      default:
        PIMWFA_CHECK(false, "invalid CIGAR op '" << op << "'");
    }
  }
  PIMWFA_CHECK(v == pattern.size(),
               "CIGAR consumes " << v << " pattern bases, expected "
                                 << pattern.size());
  PIMWFA_CHECK(h == text.size(), "CIGAR consumes " << h
                                                   << " text bases, expected "
                                                   << text.size());
}

std::string Cigar::apply(std::string_view pattern, std::string_view text) const {
  validate(pattern, text);
  std::string out;
  out.reserve(text.size());
  usize v = 0;
  usize h = 0;
  for (char op : ops_) {
    switch (op) {
      case 'M':
        out.push_back(pattern[v]);
        ++v;
        ++h;
        break;
      case 'X':
      case 'I':
        out.push_back(text[h]);
        v += (op == 'X') ? 1 : 0;
        ++h;
        break;
      case 'D':
        ++v;
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace pimwfa::seq
