#include "eval/batch.h"

#include <algorithm>
#include <functional>

namespace incdb {

namespace {

// The branchless connective loops below rely on the numeric encoding of
// Kleene's truth order f < u < t (∧ = min, ∨ = max, ¬ = 2 − x; see
// logic/kleene.cpp).
static_assert(static_cast<uint8_t>(TV3::kF) == 0 &&
                  static_cast<uint8_t>(TV3::kU) == 1 &&
                  static_cast<uint8_t>(TV3::kT) == 2,
              "batch connectives assume the f < u < t encoding");

constexpr uint8_t kT8 = static_cast<uint8_t>(TV3::kT);
constexpr uint8_t kF8 = static_cast<uint8_t>(TV3::kF);

inline uint8_t ToU8(TV3 v) { return static_cast<uint8_t>(v); }

}  // namespace

StatusOr<BatchPredicate> BatchPredicate::Make(
    const CondPtr& c, const std::vector<std::string>& attrs, CondMode mode) {
  BatchPredicate out;
  out.mode_ = mode;

  auto resolve = [&](const std::string& name) -> StatusOr<uint32_t> {
    size_t i = IndexOf(attrs, name);
    if (i == attrs.size()) {
      return Status::NotFound("condition references unknown attribute " + name);
    }
    if (std::find(out.referenced_.begin(), out.referenced_.end(), i) ==
        out.referenced_.end()) {
      out.referenced_.push_back(i);
    }
    return static_cast<uint32_t>(i);
  };

  // Postorder flattening over a virtual register stack: atoms push a fresh
  // register, ∧/∨ pop two and push their combination in place of the lower
  // one, so the program needs exactly condition-depth registers.
  uint32_t depth = 0;
  std::function<Status(const CondPtr&)> build = [&](const CondPtr& n) -> Status {
    switch (n->kind) {
      case CondKind::kAnd:
      case CondKind::kOr: {
        INCDB_RETURN_IF_ERROR(build(n->left));
        INCDB_RETURN_IF_ERROR(build(n->right));
        Insn in;
        in.kind = n->kind;
        in.dst = depth - 2;
        in.src2 = depth - 1;
        out.prog_.push_back(std::move(in));
        --depth;
        return Status::OK();
      }
      case CondKind::kEqAttrAttr:
      case CondKind::kNeqAttrAttr:
      case CondKind::kLtAttrAttr:
      case CondKind::kLeAttrAttr: {
        auto l = resolve(n->lhs);
        if (!l.ok()) return l.status();
        auto r = resolve(n->rhs);
        if (!r.ok()) return r.status();
        Insn in;
        in.kind = n->kind;
        in.col = *l;
        in.col2 = *r;
        in.dst = depth++;
        out.prog_.push_back(std::move(in));
        break;
      }
      case CondKind::kEqAttrConst:
      case CondKind::kNeqAttrConst:
      case CondKind::kIsConst:
      case CondKind::kIsNull:
      case CondKind::kLtAttrConst:
      case CondKind::kLeAttrConst:
      case CondKind::kGtAttrConst:
      case CondKind::kGeAttrConst: {
        auto l = resolve(n->lhs);
        if (!l.ok()) return l.status();
        Insn in;
        in.kind = n->kind;
        in.col = *l;
        in.constant = n->constant;
        in.dst = depth++;
        out.prog_.push_back(std::move(in));
        break;
      }
      case CondKind::kTrue:
      case CondKind::kFalse: {
        Insn in;
        in.kind = n->kind;
        in.dst = depth++;
        out.prog_.push_back(std::move(in));
        break;
      }
    }
    out.n_regs_ = std::max(out.n_regs_, depth);
    return Status::OK();
  };
  INCDB_RETURN_IF_ERROR(build(c));
  return out;
}

Status BatchPredicate::Validate(size_t input_arity) const {
  if (prog_.empty()) return Status::Internal("empty register program");
  auto in_referenced = [this](uint32_t col) {
    return std::find(referenced_.begin(), referenced_.end(), col) !=
           referenced_.end();
  };
  // Replay the postorder stack discipline Make() compiles: atoms push the
  // register at the current depth, ∧/∨ combine the two topmost in place of
  // the lower one. Any deviation means the program no longer computes a
  // single condition value in register 0.
  uint32_t depth = 0;
  uint32_t max_depth = 0;
  for (size_t pc = 0; pc < prog_.size(); ++pc) {
    const Insn& in = prog_[pc];
    const std::string at = " at instruction " + std::to_string(pc);
    switch (in.kind) {
      case CondKind::kAnd:
      case CondKind::kOr:
        if (depth < 2) return Status::Internal("stack underflow" + at);
        if (in.dst != depth - 2 || in.src2 != depth - 1) {
          return Status::Internal("connective registers break the postorder "
                                  "stack discipline" +
                                  at);
        }
        --depth;
        break;
      case CondKind::kEqAttrAttr:
      case CondKind::kNeqAttrAttr:
      case CondKind::kLtAttrAttr:
      case CondKind::kLeAttrAttr:
        if (in.col2 >= input_arity || !in_referenced(in.col2)) {
          return Status::Internal("rhs column operand out of range" + at);
        }
        [[fallthrough]];
      case CondKind::kEqAttrConst:
      case CondKind::kNeqAttrConst:
      case CondKind::kIsConst:
      case CondKind::kIsNull:
      case CondKind::kLtAttrConst:
      case CondKind::kLeAttrConst:
      case CondKind::kGtAttrConst:
      case CondKind::kGeAttrConst:
        if (in.col >= input_arity || !in_referenced(in.col)) {
          return Status::Internal("column operand out of range" + at);
        }
        if (in.constant.is_param()) {
          return Status::Internal("unbound parameter placeholder" + at);
        }
        [[fallthrough]];
      case CondKind::kTrue:
      case CondKind::kFalse:
        if (in.dst != depth) {
          return Status::Internal("atom writes register " +
                                  std::to_string(in.dst) +
                                  ", stack top is " + std::to_string(depth) +
                                  at);
        }
        ++depth;
        max_depth = std::max(max_depth, depth);
        break;
      default:
        return Status::Internal("unknown opcode" + at);
    }
  }
  if (depth != 1) {
    return Status::Internal("program leaves " + std::to_string(depth) +
                            " value(s) on the register stack");
  }
  if (n_regs_ != max_depth) {
    return Status::Internal("register count " + std::to_string(n_regs_) +
                            " does not match the program's stack depth " +
                            std::to_string(max_depth));
  }
  for (size_t col : referenced_) {
    if (col >= input_arity) {
      return Status::Internal("referenced column " + std::to_string(col) +
                              " out of range for arity " +
                              std::to_string(input_arity));
    }
  }
  if (mode_ != CondMode::kNaive && mode_ != CondMode::kSql &&
      mode_ != CondMode::kUnif) {
    return Status::Internal("invalid condition mode");
  }
  return Status::OK();
}

void BatchPredicate::Run(const Batch& b, Scratch* s) const {
  const size_t n = b.rows;
  if (s->regs.size() < n_regs_) s->regs.resize(n_regs_);
  for (uint32_t r = 0; r < n_regs_; ++r) {
    if (s->regs[r].size() < n) s->regs[r].resize(n);
  }
  const CondMode mode = mode_;
  for (const Insn& in : prog_) {
    uint8_t* dst = s->regs[in.dst].data();
    switch (in.kind) {
      case CondKind::kTrue:
        std::fill(dst, dst + n, kT8);
        break;
      case CondKind::kFalse:
        std::fill(dst, dst + n, kF8);
        break;
      case CondKind::kAnd: {
        const uint8_t* b2 = s->regs[in.src2].data();
        for (size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], b2[i]);
        break;
      }
      case CondKind::kOr: {
        const uint8_t* b2 = s->regs[in.src2].data();
        for (size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], b2[i]);
        break;
      }
      case CondKind::kEqAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondEqTV(a.At(i), c2.At(i), mode));
        }
        break;
      }
      case CondKind::kNeqAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = 2 - ToU8(CondEqTV(a.At(i), c2.At(i), mode));
        }
        break;
      }
      case CondKind::kEqAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondEqTV(a.At(i), in.constant, mode));
        }
        break;
      }
      case CondKind::kNeqAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = 2 - ToU8(CondEqTV(a.At(i), in.constant, mode));
        }
        break;
      }
      case CondKind::kIsConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(FromBool(a.At(i).is_const()));
        }
        break;
      }
      case CondKind::kIsNull: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(FromBool(a.At(i).is_null()));
        }
        break;
      }
      case CondKind::kLtAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondOrderTV(a.At(i), c2.At(i), /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kLeAttrAttr: {
        const BatchColumn a = b.cols[in.col], c2 = b.cols[in.col2];
        for (size_t i = 0; i < n; ++i) {
          dst[i] = ToU8(CondOrderTV(a.At(i), c2.At(i), /*strict=*/false, mode));
        }
        break;
      }
      case CondKind::kLtAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(a.At(i), in.constant, /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kLeAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(a.At(i), in.constant, /*strict=*/false, mode));
        }
        break;
      }
      case CondKind::kGtAttrConst: {
        // Operand order mirrors the scalar evaluator: A > c ≡ c < A.
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(in.constant, a.At(i), /*strict=*/true, mode));
        }
        break;
      }
      case CondKind::kGeAttrConst: {
        const BatchColumn a = b.cols[in.col];
        for (size_t i = 0; i < n; ++i) {
          dst[i] =
              ToU8(CondOrderTV(in.constant, a.At(i), /*strict=*/false, mode));
        }
        break;
      }
    }
  }
}

void BatchPredicate::SelectTrue(const Batch& b, Scratch* scratch,
                                SelVector* sel) const {
  Run(b, scratch);
  const uint8_t* res = scratch->regs[0].data();
  for (size_t i = 0; i < b.rows; ++i) {
    if (res[i] == kT8) sel->push_back(static_cast<uint32_t>(i));
  }
}

void BatchPredicate::EvalTruth(const Batch& b, Scratch* scratch,
                               uint8_t* out) const {
  Run(b, scratch);
  const uint8_t* res = scratch->regs[0].data();
  std::copy(res, res + b.rows, out);
}

PairSelector::PairSelector(const BatchPredicate& bp, size_t left_arity)
    : bp_(bp), left_arity_(left_arity) {
  size_t arity = 0;
  for (size_t p : bp.referenced()) arity = std::max(arity, p + 1);
  batch_.Reset(arity, 0);
  swept_.resize(arity);
  window_.resize(arity);
}

void PairSelector::Transpose(const std::vector<Relation::Row>& rows,
                             bool right) {
  swept_right_ = right;
  for (size_t p : bp_.referenced()) {
    if ((p >= left_arity_) != right) continue;
    ColumnVector& col = swept_[p];
    col.Clear();
    col.Reserve(rows.size());
    AppendColumn(rows, 0, rows.size(), right ? p - left_arity_ : p, &col);
  }
}

const SelVector& PairSelector::SelectBroadcast(const Tuple& fixed,
                                               size_t begin, size_t end) {
  batch_.rows = end - begin;
  for (size_t p : bp_.referenced()) {
    const bool on_right = p >= left_arity_;
    if (on_right == swept_right_) {
      batch_.cols[p] = BatchColumn{swept_[p].data() + begin, 1};
    } else {
      batch_.cols[p] = BatchColumn{&fixed[on_right ? p - left_arity_ : p], 0};
    }
  }
  return Select();
}

const SelVector& PairSelector::SelectPairs(
    const std::vector<Relation::Row>& lrows,
    const std::vector<Relation::Row>& rrows) {
  batch_.rows = lids_.size();
  for (size_t p : bp_.referenced()) {
    ColumnVector& col = window_[p];
    col.Clear();
    col.Reserve(lids_.size());
    if (p < left_arity_) {
      for (uint32_t i : lids_) col.PushBack(lrows[i].first[p]);
    } else {
      for (uint32_t i : rids_) col.PushBack(rrows[i].first[p - left_arity_]);
    }
    batch_.cols[p] = BatchColumn{col.data(), 1};
  }
  return Select();
}

const SelVector& PairSelector::Select() {
  sel_.clear();
  bp_.SelectTrue(batch_, &scratch_, &sel_);
  return sel_;
}

}  // namespace incdb
