#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "seq/alphabet.hpp"
#include "seq/cigar.hpp"
#include "seq/generator.hpp"
#include "seq/packed.hpp"

namespace pimwfa::seq {
namespace {

TEST(Alphabet, EncodeDecodeRoundTrip) {
  for (u8 code = 0; code < 4; ++code) {
    EXPECT_EQ(encode_base(decode_base(code)), code);
  }
}

TEST(Alphabet, LowerCaseAccepted) {
  EXPECT_EQ(encode_base('a'), encode_base('A'));
  EXPECT_EQ(encode_base('t'), encode_base('T'));
}

TEST(Alphabet, InvalidBases) {
  EXPECT_EQ(encode_base('N'), kInvalidCode);
  EXPECT_EQ(encode_base('x'), kInvalidCode);
  EXPECT_FALSE(is_valid_base('-'));
  EXPECT_TRUE(is_valid_base('G'));
}

TEST(Alphabet, Complement) {
  EXPECT_EQ(complement_base('A'), 'T');
  EXPECT_EQ(complement_base('T'), 'A');
  EXPECT_EQ(complement_base('C'), 'G');
  EXPECT_EQ(complement_base('G'), 'C');
}

TEST(Alphabet, ReverseComplement) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");
  EXPECT_EQ(reverse_complement("AAAC"), "GTTT");
  EXPECT_EQ(reverse_complement(""), "");
}

TEST(Alphabet, ReverseComplementInvolution) {
  Rng rng(3);
  const std::string s = random_sequence(rng, 333);
  EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
}

TEST(Alphabet, NormalizeUppercases) {
  EXPECT_EQ(normalize_sequence("acgt"), "ACGT");
  EXPECT_THROW(normalize_sequence("ACGN"), InvalidArgument);
}

TEST(Alphabet, IsValidSequence) {
  EXPECT_TRUE(is_valid_sequence("ACGTacgt"));
  EXPECT_FALSE(is_valid_sequence("ACGU"));
  EXPECT_TRUE(is_valid_sequence(""));
}

TEST(Packed, RoundTrip) {
  Rng rng(5);
  for (usize len : {0u, 1u, 3u, 4u, 5u, 100u, 1023u}) {
    const std::string s = random_sequence(rng, len);
    PackedSequence packed(s);
    EXPECT_EQ(packed.size(), len);
    EXPECT_EQ(packed.unpack(), s);
  }
}

TEST(Packed, PackedBytes) {
  EXPECT_EQ(PackedSequence::packed_bytes(0), 0u);
  EXPECT_EQ(PackedSequence::packed_bytes(1), 1u);
  EXPECT_EQ(PackedSequence::packed_bytes(4), 1u);
  EXPECT_EQ(PackedSequence::packed_bytes(5), 2u);
  EXPECT_EQ(PackedSequence::packed_bytes(100), 25u);
}

TEST(Packed, CodeAt) {
  PackedSequence packed("ACGT");
  EXPECT_EQ(packed.code_at(0), 0);
  EXPECT_EQ(packed.code_at(1), 1);
  EXPECT_EQ(packed.code_at(2), 2);
  EXPECT_EQ(packed.code_at(3), 3);
  EXPECT_EQ(packed.char_at(2), 'G');
}

TEST(Packed, ExternalBuffer) {
  const std::string s = "ACGTACGTT";
  std::vector<u8> buffer(PackedSequence::packed_bytes(s.size()));
  PackedSequence::pack_into(s, buffer.data());
  EXPECT_EQ(PackedSequence::unpack_from(buffer.data(), s.size()), s);
}

TEST(Packed, RejectsInvalidBase) {
  EXPECT_THROW(PackedSequence("ACGN"), InvalidArgument);
}

TEST(Cigar, FromOpsAndRle) {
  const Cigar c = Cigar::from_ops("MMMXIID");
  EXPECT_EQ(c.to_rle(), "3M1X2I1D");
  EXPECT_EQ(Cigar::from_rle("3M1X2I1D"), c);
}

TEST(Cigar, FromRleImplicitCount) {
  EXPECT_EQ(Cigar::from_rle("MXD").ops(), "MXD");
}

TEST(Cigar, FromRleRejectsBadInput) {
  EXPECT_THROW(Cigar::from_rle("3"), InvalidArgument);
  EXPECT_THROW(Cigar::from_rle("3Z"), InvalidArgument);
  EXPECT_THROW(Cigar::from_rle("0M"), InvalidArgument);
}

TEST(Cigar, FromRleRejectsOverflowingCounts) {
  // 2^64 + 1 and 2^64 + 2 used to wrap to 1 and 2.
  EXPECT_THROW(Cigar::from_rle("18446744073709551617M"), InvalidArgument);
  EXPECT_THROW(Cigar::from_rle("18446744073709551618X3M"), InvalidArgument);
  EXPECT_THROW(Cigar::from_rle("99999999999999999999999999M"), InvalidArgument);
  // 2^64 - 1 fits usize but no string can hold it.
  EXPECT_THROW(Cigar::from_rle("18446744073709551615M"), InvalidArgument);
  EXPECT_THROW(Cigar::from_rle("1M18446744073709551615M"), InvalidArgument);
}

TEST(Cigar, FromOpsRejectsBadOp) {
  EXPECT_THROW(Cigar::from_ops("MMQ"), InvalidArgument);
}

TEST(Cigar, Counts) {
  const Cigar c = Cigar::from_ops("MMXXIID");
  EXPECT_EQ(c.matches(), 2u);
  EXPECT_EQ(c.mismatches(), 2u);
  EXPECT_EQ(c.insertions(), 2u);
  EXPECT_EQ(c.deletions(), 1u);
  EXPECT_EQ(c.edit_distance(), 5u);
}

TEST(Cigar, ConsumedLengths) {
  const Cigar c = Cigar::from_ops("MMXIID");
  // pattern consumed by M, X, D; text consumed by M, X, I.
  EXPECT_EQ(c.pattern_length(), 4u);
  EXPECT_EQ(c.text_length(), 5u);
}

TEST(Cigar, AffineScore) {
  // "MMXIID": 1 mismatch (x) + one I-run of 2 (o+2e) + one D-run of 1 (o+e).
  const Cigar c = Cigar::from_ops("MMXIID");
  EXPECT_EQ(c.affine_score(4, 6, 2), 4 + (6 + 4) + (6 + 2));
}

TEST(Cigar, AffineScoreSplitGapsChargeTwoOpens) {
  EXPECT_EQ(Cigar::from_ops("IMI").affine_score(4, 6, 2), 2 * (6 + 2));
  EXPECT_EQ(Cigar::from_ops("IIM").affine_score(4, 6, 2), 6 + 2 * 2);
  // I directly followed by D is two separate gaps.
  EXPECT_EQ(Cigar::from_ops("ID").affine_score(4, 6, 2), 2 * (6 + 2));
}

TEST(Cigar, ValidateAcceptsCorrectAlignment) {
  // pattern=ACGT, text=AGGTT : A match, C->G mismatch, G,T match, +T ins.
  const Cigar c = Cigar::from_ops("MXMMI");
  EXPECT_NO_THROW(c.validate("ACGT", "AGGTT"));
}

TEST(Cigar, ValidateRejectsWrongClaims) {
  EXPECT_THROW(Cigar::from_ops("MM").validate("AC", "AG"), Error);   // X needed
  EXPECT_THROW(Cigar::from_ops("XX").validate("AC", "AC"), Error);   // M needed
  EXPECT_THROW(Cigar::from_ops("M").validate("AC", "AC"), Error);    // short
  EXPECT_THROW(Cigar::from_ops("MMM").validate("AC", "AC"), Error);  // long
}

TEST(Cigar, ApplyReconstructsText) {
  const std::string pattern = "ACGT";
  const std::string text = "AGGTT";
  const Cigar c = Cigar::from_ops("MXMMI");
  EXPECT_EQ(c.apply(pattern, text), text);
}

TEST(Cigar, Identity) {
  EXPECT_DOUBLE_EQ(Cigar::from_ops("MMMM").identity(), 1.0);
  EXPECT_DOUBLE_EQ(Cigar::from_ops("MMXX").identity(), 0.5);
  EXPECT_DOUBLE_EQ(Cigar().identity(), 0.0);
}

TEST(CigarBuilder, PrependsInForwardOrder) {
  CigarBuilder builder;
  builder.reserve(12);
  builder.prepend_run('M', 3);
  builder.prepend('D');
  builder.prepend_run('I', 2);
  builder.prepend('X');
  builder.prepend_run('M', 0);
  builder.prepend_run('M', 2);
  EXPECT_EQ(builder.size(), 9u);
  EXPECT_EQ(builder.finish().ops(), "MMXIIDMMM");
  EXPECT_EQ(builder.size(), 0u);
}

TEST(CigarBuilder, EmptyFinish) {
  CigarBuilder builder;
  EXPECT_TRUE(builder.finish().empty());
  builder.reserve(4);
  EXPECT_TRUE(builder.finish().empty());
}

TEST(CigarBuilder, ReusableAfterFinish) {
  CigarBuilder builder;
  builder.reserve(200);
  builder.prepend_run('M', 150);
  builder.prepend('X');
  EXPECT_EQ(builder.finish().size(), 151u);
  // A smaller CIGAR on the same (larger) buffer holds only its own ops.
  builder.reserve(3);
  builder.prepend('I');
  builder.prepend('M');
  const Cigar small = builder.finish();
  EXPECT_EQ(small.ops(), "MI");
  // reserve() also discards ops that were never finished.
  builder.prepend('D');
  builder.reserve(2);
  builder.prepend('X');
  EXPECT_EQ(builder.finish().ops(), "X");
}

TEST(CigarBuilder, FinishIsExactSize) {
  CigarBuilder builder;
  builder.reserve(4096);
  builder.prepend_run('M', 1000);
  const Cigar c = builder.finish();
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_LT(c.ops().capacity(), 2 * c.size());
}

TEST(CigarBuilder, OverflowThrows) {
  CigarBuilder builder;
  builder.reserve(2);
  builder.prepend('M');
  EXPECT_THROW(builder.prepend_run('M', 2), Error);
  builder.prepend('X');
  EXPECT_THROW(builder.prepend('I'), Error);
  EXPECT_EQ(builder.finish().ops(), "XM");
}

}  // namespace
}  // namespace pimwfa::seq
