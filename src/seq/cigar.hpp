// CIGAR representation of a pairwise alignment between a `pattern` and a
// `text`.
//
// Conventions (match the WFA paper): the pattern runs vertically (index v),
// the text horizontally (index h).
//   'M' match     consumes one pattern and one text base (bases equal)
//   'X' mismatch  consumes one of each (bases differ)
//   'I' insertion consumes one text base only  (gap in the pattern)
//   'D' deletion  consumes one pattern base only (gap in the text)
//
// Internally ops are stored uncompressed (one char per operation), which is
// the natural output of a backtrace: a backtrace walks the alignment from
// its end, so it writes ops back to front into a CigarBuilder, which hands
// over an exact-size Cigar in forward order. Run-length compressed text
// form ("3M1X2I") is available for display and interchange.
#pragma once

#include <cstring>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pimwfa::seq {

class Cigar {
 public:
  Cigar() = default;

  // From uncompressed op string (only MXID allowed).
  static Cigar from_ops(std::string ops);

  // Parse run-length compressed form, e.g. "5M1X3D".
  static Cigar from_rle(std::string_view rle);

  // Uncompressed operation string.
  const std::string& ops() const noexcept { return ops_; }
  bool empty() const noexcept { return ops_.empty(); }
  usize size() const noexcept { return ops_.size(); }

  void clear() noexcept { ops_.clear(); }

  // Run-length compressed string.
  std::string to_rle() const;

  // Counts.
  usize count(char op) const noexcept;
  usize matches() const noexcept { return count('M'); }
  usize mismatches() const noexcept { return count('X'); }
  usize insertions() const noexcept { return count('I'); }
  usize deletions() const noexcept { return count('D'); }

  // Number of pattern / text bases consumed.
  usize pattern_length() const noexcept;
  usize text_length() const noexcept;

  // #X + #I + #D (unit-cost edit distance of this particular alignment).
  usize edit_distance() const noexcept;

  // Gap-affine penalty of this alignment: mismatches cost `mismatch` each;
  // every maximal run of I (or D) of length L costs gap_open + L*gap_extend;
  // matches are free. This mirrors align::Penalties::score contributions.
  i64 affine_score(i32 mismatch, i32 gap_open, i32 gap_extend) const noexcept;

  // Fraction of M among consuming columns, in [0,1]; 0 for empty CIGAR.
  double identity() const noexcept;

  // Throws Error with a diagnostic if this CIGAR is not a valid alignment
  // of `pattern` vs `text` (wrong lengths, M on differing bases, X on equal
  // bases).
  void validate(std::string_view pattern, std::string_view text) const;

  // Reconstruct the text from the pattern by applying the edits.
  std::string apply(std::string_view pattern, std::string_view text) const;

  bool operator==(const Cigar& other) const noexcept = default;

 private:
  friend class CigarBuilder;

  std::string ops_;
};

// True iff `op` is one of M, X, I, D.
constexpr bool is_cigar_op(char op) noexcept {
  return op == 'M' || op == 'X' || op == 'I' || op == 'D';
}

// Builds a Cigar back to front, in the order a backtrace visits the ops.
// The op buffer is reused across CIGARs; finish() copies the emitted ops
// out with one exact-size allocation, so a result never carries the
// buffer's spare capacity.
//
//   builder.reserve(pattern.size() + text.size());  // bounds any alignment
//   builder.prepend_run('M', 5);                    // last ops first
//   builder.prepend('X');
//   Cigar cigar = builder.finish();                 // "XMMMMM"
class CigarBuilder {
 public:
  // Makes room for `max_ops` ops and discards any ops not yet finished
  // (e.g. those of a backtrace that threw).
  void reserve(usize max_ops);

  // Ops prepended since the last finish().
  usize size() const noexcept { return buf_.size() - front_; }

  void prepend(char op) {
    PIMWFA_DCHECK(is_cigar_op(op));
    if (front_ == 0) [[unlikely]] overflow(1);
    buf_[--front_] = op;
  }

  // Prepends `n` copies of `op` with one fill.
  void prepend_run(char op, usize n) {
    PIMWFA_DCHECK(is_cigar_op(op));
    if (n > front_) [[unlikely]] overflow(n);
    front_ -= n;
    std::memset(buf_.data() + front_, op, n);
  }

  // Returns the prepended ops in forward order and empties the builder.
  Cigar finish();

 private:
  [[noreturn]] void overflow(usize n) const;

  std::string buf_;  // ops occupy [front_, buf_.size())
  usize front_ = 0;
};

}  // namespace pimwfa::seq
