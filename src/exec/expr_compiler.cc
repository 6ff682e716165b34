#include "exec/expr_compiler.h"

#include <utility>

#include "common/logging.h"
#include "common/str_util.h"

namespace prisma::exec {

using algebra::BinaryOp;
using algebra::Expr;
using algebra::ExprKind;
using algebra::UnaryOp;

namespace {

/// Builder state threaded through compilation.
struct Compiler {
  std::vector<Instruction> code;
  std::vector<Value> constants;
  uint16_t next_reg = 0;
  uint32_t next_scratch = 0;

  uint16_t AllocReg() { return next_reg++; }

  uint16_t EmitConst(Value v) {
    const uint16_t dst = AllocReg();
    constants.push_back(std::move(v));
    code.push_back(Instruction{OpCode::kConst, dst, 0, 0,
                               static_cast<uint32_t>(constants.size() - 1)});
    return dst;
  }

  uint16_t Emit(OpCode op, uint16_t a, uint16_t b = 0, uint32_t aux = 0) {
    const uint16_t dst = AllocReg();
    code.push_back(Instruction{op, dst, a, b, aux});
    return dst;
  }
};

/// Result of compiling a subtree: its register and static type.
struct Slot {
  uint16_t reg;
  DataType type;
};

bool NumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

/// Comparison opcode family base for a given operand type.
OpCode CmpOp(BinaryOp op, DataType t) {
  const int off = [&] {
    switch (op) {
      case BinaryOp::kEq:
        return 0;
      case BinaryOp::kNe:
        return 1;
      case BinaryOp::kLt:
        return 2;
      case BinaryOp::kLe:
        return 3;
      case BinaryOp::kGt:
        return 4;
      case BinaryOp::kGe:
        return 5;
      default:
        PRISMA_CHECK(false) << "not a comparison";
        return 0;
    }
  }();
  OpCode base = OpCode::kEqI;
  switch (t) {
    case DataType::kInt64:
      base = OpCode::kEqI;
      break;
    case DataType::kDouble:
      base = OpCode::kEqD;
      break;
    case DataType::kString:
      base = OpCode::kEqS;
      break;
    case DataType::kBool:
      PRISMA_CHECK(op == BinaryOp::kEq || op == BinaryOp::kNe)
          << "ordering comparison on BOOL";
      base = OpCode::kEqB;
      break;
    default:
      PRISMA_CHECK(false) << "bad comparison type";
  }
  return static_cast<OpCode>(static_cast<int>(base) + off);
}

StatusOr<Slot> CompileNode(const Expr& expr, Compiler& c);

/// Widens an INT slot to DOUBLE when the sibling is DOUBLE.
Slot Widen(Slot s, Compiler& c) {
  if (s.type == DataType::kInt64) {
    return Slot{c.Emit(OpCode::kI2D, s.reg), DataType::kDouble};
  }
  return s;
}

StatusOr<Slot> CompileBinary(const Expr& expr, Compiler& c) {
  const BinaryOp op = expr.binary_op();
  ASSIGN_OR_RETURN(Slot l, CompileNode(*expr.left(), c));
  ASSIGN_OR_RETURN(Slot r, CompileNode(*expr.right(), c));

  // A statically-NULL operand makes arithmetic and comparisons NULL.
  const bool static_null =
      l.type == DataType::kNull || r.type == DataType::kNull;

  switch (op) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      // Kleene logic handles NULL operands at runtime.
      const OpCode oc = (op == BinaryOp::kAnd) ? OpCode::kAnd : OpCode::kOr;
      return Slot{c.Emit(oc, l.reg, r.reg), DataType::kBool};
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (static_null) {
        return Slot{c.EmitConst(Value::Null()), DataType::kNull};
      }
      if (NumericType(l.type) && NumericType(r.type) && l.type != r.type) {
        l = Widen(l, c);
        r = Widen(r, c);
      }
      if (l.type != r.type) {
        return InternalError("compiler: incomparable operand types");
      }
      return Slot{c.Emit(CmpOp(op, l.type), l.reg, r.reg), DataType::kBool};
    }
    case BinaryOp::kAdd:
      if (l.type == DataType::kString && r.type == DataType::kString) {
        return Slot{c.Emit(OpCode::kConcat, l.reg, r.reg, c.next_scratch++),
                    DataType::kString};
      }
      [[fallthrough]];
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (static_null) {
        return Slot{c.EmitConst(Value::Null()), DataType::kNull};
      }
      const bool dbl =
          l.type == DataType::kDouble || r.type == DataType::kDouble;
      if (dbl) {
        l = Widen(l, c);
        r = Widen(r, c);
      }
      OpCode oc;
      switch (op) {
        case BinaryOp::kAdd:
          oc = dbl ? OpCode::kAddD : OpCode::kAddI;
          break;
        case BinaryOp::kSub:
          oc = dbl ? OpCode::kSubD : OpCode::kSubI;
          break;
        case BinaryOp::kMul:
          oc = dbl ? OpCode::kMulD : OpCode::kMulI;
          break;
        default:
          oc = dbl ? OpCode::kDivD : OpCode::kDivI;
          break;
      }
      return Slot{c.Emit(oc, l.reg, r.reg),
                  dbl ? DataType::kDouble : DataType::kInt64};
    }
    case BinaryOp::kMod:
      if (static_null) {
        return Slot{c.EmitConst(Value::Null()), DataType::kNull};
      }
      return Slot{c.Emit(OpCode::kModI, l.reg, r.reg), DataType::kInt64};
  }
  return InternalError("compiler: bad binary op");
}

StatusOr<Slot> CompileNode(const Expr& expr, Compiler& c) {
  if (!expr.bound()) return InternalError("compiling unbound expression");
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return Slot{c.EmitConst(expr.literal()), expr.literal().type()};
    case ExprKind::kColumnRef:
      return Slot{c.Emit(OpCode::kLoadCol, 0, 0,
                         static_cast<uint32_t>(expr.column_index())),
                  expr.result_type()};
    case ExprKind::kUnary: {
      ASSIGN_OR_RETURN(Slot a, CompileNode(*expr.operand(), c));
      switch (expr.unary_op()) {
        case UnaryOp::kNeg:
          if (a.type == DataType::kNull) {
            return Slot{c.EmitConst(Value::Null()), DataType::kNull};
          }
          return Slot{c.Emit(a.type == DataType::kDouble ? OpCode::kNegD
                                                         : OpCode::kNegI,
                             a.reg),
                      a.type};
        case UnaryOp::kNot:
          return Slot{c.Emit(OpCode::kNot, a.reg), DataType::kBool};
        case UnaryOp::kIsNull:
          return Slot{c.Emit(OpCode::kIsNull, a.reg), DataType::kBool};
      }
      return InternalError("compiler: bad unary op");
    }
    case ExprKind::kBinary:
      return CompileBinary(expr, c);
  }
  return InternalError("compiler: corrupt expression");
}

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kConst: return "const";
    case OpCode::kLoadCol: return "loadcol";
    case OpCode::kI2D: return "i2d";
    case OpCode::kNegI: return "negi";
    case OpCode::kNegD: return "negd";
    case OpCode::kNot: return "not";
    case OpCode::kIsNull: return "isnull";
    case OpCode::kAddI: return "addi";
    case OpCode::kSubI: return "subi";
    case OpCode::kMulI: return "muli";
    case OpCode::kDivI: return "divi";
    case OpCode::kModI: return "modi";
    case OpCode::kAddD: return "addd";
    case OpCode::kSubD: return "subd";
    case OpCode::kMulD: return "muld";
    case OpCode::kDivD: return "divd";
    case OpCode::kConcat: return "concat";
    case OpCode::kEqI: return "eqi";
    case OpCode::kNeI: return "nei";
    case OpCode::kLtI: return "lti";
    case OpCode::kLeI: return "lei";
    case OpCode::kGtI: return "gti";
    case OpCode::kGeI: return "gei";
    case OpCode::kEqD: return "eqd";
    case OpCode::kNeD: return "ned";
    case OpCode::kLtD: return "ltd";
    case OpCode::kLeD: return "led";
    case OpCode::kGtD: return "gtd";
    case OpCode::kGeD: return "ged";
    case OpCode::kEqS: return "eqs";
    case OpCode::kNeS: return "nes";
    case OpCode::kLtS: return "lts";
    case OpCode::kLeS: return "les";
    case OpCode::kGtS: return "gts";
    case OpCode::kGeS: return "ges";
    case OpCode::kEqB: return "eqb";
    case OpCode::kNeB: return "neb";
    case OpCode::kAnd: return "and";
    case OpCode::kOr: return "or";
  }
  return "?";
}

}  // namespace

StatusOr<CompiledExpr> CompileExpr(const Expr& expr) {
  Compiler c;
  ASSIGN_OR_RETURN(Slot root, CompileNode(expr, c));
  CompiledExpr compiled;
  compiled.code_ = std::move(c.code);
  compiled.constants_ = std::move(c.constants);
  compiled.result_type_ = root.type;
  compiled.result_reg_ = root.reg;
  compiled.num_regs_ = c.next_reg;
  compiled.regs_.resize(c.next_reg);
  compiled.scratch_.resize(c.next_scratch);
  return compiled;
}

Status CompiledExpr::Run(const Tuple& tuple) const {
  Reg* regs = regs_.data();
  for (const Instruction& in : code_) {
    Reg& d = regs[in.dst];
    switch (in.op) {
      case OpCode::kConst: {
        const Value& v = constants_[in.aux];
        d.null = v.is_null();
        if (!d.null) {
          switch (v.type()) {
            case DataType::kBool:
              d.b = v.bool_value();
              break;
            case DataType::kInt64:
              d.i = v.int_value();
              break;
            case DataType::kDouble:
              d.d = v.double_value();
              break;
            case DataType::kString:
              d.s = &v.string_value();
              break;
            default:
              break;
          }
        }
        break;
      }
      case OpCode::kLoadCol: {
        if (in.aux >= tuple.size()) {
          return InternalError("column index beyond tuple width");
        }
        const Value& v = tuple.at(in.aux);
        d.null = v.is_null();
        if (!d.null) {
          switch (v.type()) {
            case DataType::kBool:
              d.b = v.bool_value();
              break;
            case DataType::kInt64:
              d.i = v.int_value();
              break;
            case DataType::kDouble:
              d.d = v.double_value();
              break;
            case DataType::kString:
              d.s = &v.string_value();
              break;
            default:
              break;
          }
        }
        break;
      }
      case OpCode::kI2D: {
        const Reg& a = regs[in.a];
        d.null = a.null;
        d.d = static_cast<double>(a.i);
        break;
      }
      case OpCode::kNegI: {
        const Reg& a = regs[in.a];
        d.null = a.null;
        d.i = -a.i;
        break;
      }
      case OpCode::kNegD: {
        const Reg& a = regs[in.a];
        d.null = a.null;
        d.d = -a.d;
        break;
      }
      case OpCode::kNot: {
        const Reg& a = regs[in.a];
        d.null = a.null;
        d.b = !a.b;
        break;
      }
      case OpCode::kIsNull: {
        d.null = false;
        d.b = regs[in.a].null;
        break;
      }
#define PRISMA_ARITH(OP, FIELD, EXPR_)                       \
  {                                                          \
    const Reg& a = regs[in.a];                               \
    const Reg& b = regs[in.b];                               \
    d.null = a.null || b.null;                               \
    if (!d.null) d.FIELD = (EXPR_);                          \
    break;                                                   \
  }
      case OpCode::kAddI:
        PRISMA_ARITH(kAddI, i, a.i + b.i)
      case OpCode::kSubI:
        PRISMA_ARITH(kSubI, i, a.i - b.i)
      case OpCode::kMulI:
        PRISMA_ARITH(kMulI, i, a.i * b.i)
      case OpCode::kDivI: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        d.null = a.null || b.null;
        if (!d.null) {
          if (b.i == 0) return InvalidArgumentError("division by zero");
          d.i = a.i / b.i;
        }
        break;
      }
      case OpCode::kModI: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        d.null = a.null || b.null;
        if (!d.null) {
          if (b.i == 0) return InvalidArgumentError("modulo by zero");
          d.i = a.i % b.i;
        }
        break;
      }
      case OpCode::kAddD:
        PRISMA_ARITH(kAddD, d, a.d + b.d)
      case OpCode::kSubD:
        PRISMA_ARITH(kSubD, d, a.d - b.d)
      case OpCode::kMulD:
        PRISMA_ARITH(kMulD, d, a.d * b.d)
      case OpCode::kDivD: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        d.null = a.null || b.null;
        if (!d.null) {
          if (b.d == 0.0) return InvalidArgumentError("division by zero");
          d.d = a.d / b.d;
        }
        break;
      }
      case OpCode::kConcat: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        d.null = a.null || b.null;
        if (!d.null) {
          std::string& slot = scratch_[in.aux];
          slot.assign(*a.s);
          slot.append(*b.s);
          d.s = &slot;
        }
        break;
      }
      case OpCode::kEqI:
        PRISMA_ARITH(kEqI, b, a.i == b.i)
      case OpCode::kNeI:
        PRISMA_ARITH(kNeI, b, a.i != b.i)
      case OpCode::kLtI:
        PRISMA_ARITH(kLtI, b, a.i < b.i)
      case OpCode::kLeI:
        PRISMA_ARITH(kLeI, b, a.i <= b.i)
      case OpCode::kGtI:
        PRISMA_ARITH(kGtI, b, a.i > b.i)
      case OpCode::kGeI:
        PRISMA_ARITH(kGeI, b, a.i >= b.i)
      case OpCode::kEqD:
        PRISMA_ARITH(kEqD, b, a.d == b.d)
      case OpCode::kNeD:
        PRISMA_ARITH(kNeD, b, a.d != b.d)
      case OpCode::kLtD:
        PRISMA_ARITH(kLtD, b, a.d < b.d)
      case OpCode::kLeD:
        PRISMA_ARITH(kLeD, b, a.d <= b.d)
      case OpCode::kGtD:
        PRISMA_ARITH(kGtD, b, a.d > b.d)
      case OpCode::kGeD:
        PRISMA_ARITH(kGeD, b, a.d >= b.d)
      case OpCode::kEqS:
        PRISMA_ARITH(kEqS, b, *a.s == *b.s)
      case OpCode::kNeS:
        PRISMA_ARITH(kNeS, b, *a.s != *b.s)
      case OpCode::kLtS:
        PRISMA_ARITH(kLtS, b, *a.s < *b.s)
      case OpCode::kLeS:
        PRISMA_ARITH(kLeS, b, *a.s <= *b.s)
      case OpCode::kGtS:
        PRISMA_ARITH(kGtS, b, *a.s > *b.s)
      case OpCode::kGeS:
        PRISMA_ARITH(kGeS, b, *a.s >= *b.s)
      case OpCode::kEqB:
        PRISMA_ARITH(kEqB, b, a.b == b.b)
      case OpCode::kNeB:
        PRISMA_ARITH(kNeB, b, a.b != b.b)
#undef PRISMA_ARITH
      case OpCode::kAnd: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        // Kleene: false dominates NULL.
        if ((!a.null && !a.b) || (!b.null && !b.b)) {
          d.null = false;
          d.b = false;
        } else if (a.null || b.null) {
          d.null = true;
        } else {
          d.null = false;
          d.b = true;
        }
        break;
      }
      case OpCode::kOr: {
        const Reg& a = regs[in.a];
        const Reg& b = regs[in.b];
        // Kleene: true dominates NULL.
        if ((!a.null && a.b) || (!b.null && b.b)) {
          d.null = false;
          d.b = true;
        } else if (a.null || b.null) {
          d.null = true;
        } else {
          d.null = false;
          d.b = false;
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status CompiledExpr::RunBatch(std::span<const ColumnView> columns,
                              size_t rows) const {
  if (vregs_.size() != num_regs_) vregs_.resize(num_regs_);
  if (vscratch_.size() != scratch_.size()) vscratch_.resize(scratch_.size());
  // First failing row (and its message); mirrors the per-tuple path, whose
  // outer loop is rows: the error surfaced is the one of the smallest
  // failing row, and within that row the first failing instruction in
  // program order — which is how instructions are visited here, so a
  // same-row later failure never overwrites an earlier one.
  size_t fail_row = SIZE_MAX;
  const char* fail_msg = nullptr;
  auto fail = [&](size_t row, const char* msg) {
    if (row < fail_row) {
      fail_row = row;
      fail_msg = msg;
    }
  };
  for (const Instruction& in : code_) {
    VReg& d = vregs_[in.dst];
    switch (in.op) {
      case OpCode::kConst: {
        const Value& v = constants_[in.aux];
        d.null.assign(rows, v.is_null() ? 1 : 0);
        if (!v.is_null()) {
          switch (v.type()) {
            case DataType::kBool:
              d.b.assign(rows, v.bool_value() ? 1 : 0);
              break;
            case DataType::kInt64:
              d.i.assign(rows, v.int_value());
              break;
            case DataType::kDouble:
              d.d.assign(rows, v.double_value());
              break;
            case DataType::kString:
              d.s.assign(rows, &v.string_value());
              break;
            default:
              break;
          }
        }
        break;
      }
      case OpCode::kLoadCol: {
        if (in.aux >= columns.size()) {
          return InternalError("column index beyond batch width");
        }
        const ColumnView& col = columns[in.aux];
        d.null.resize(rows);
        if (col.boxed) {
          // Mixed-type column: unbox per row, as the per-tuple path does.
          d.b.resize(rows);
          d.i.resize(rows);
          d.d.resize(rows);
          d.s.assign(rows, nullptr);
          for (size_t r = 0; r < rows; ++r) {
            const Value& v = col.values[r];
            d.null[r] = v.is_null() ? 1 : 0;
            if (v.is_null()) continue;
            switch (v.type()) {
              case DataType::kBool:
                d.b[r] = v.bool_value() ? 1 : 0;
                break;
              case DataType::kInt64:
                d.i[r] = v.int_value();
                break;
              case DataType::kDouble:
                d.d[r] = v.double_value();
                break;
              case DataType::kString:
                d.s[r] = &v.string_value();
                break;
              default:
                break;
            }
          }
          break;
        }
        d.null.assign(col.nulls, col.nulls + rows);
        switch (col.type) {
          case DataType::kNull:
            break;
          case DataType::kBool:
            d.b.assign(col.bools, col.bools + rows);
            break;
          case DataType::kInt64:
            d.i.assign(col.ints, col.ints + rows);
            break;
          case DataType::kDouble:
            d.d.assign(col.doubles, col.doubles + rows);
            break;
          case DataType::kString:
            d.s.resize(rows);
            for (size_t r = 0; r < rows; ++r) d.s[r] = &col.strings[r];
            break;
        }
        break;
      }
      case OpCode::kI2D: {
        const VReg& a = vregs_[in.a];
        d.null = a.null;
        d.d.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (a.null[r] == 0) d.d[r] = static_cast<double>(a.i[r]);
        }
        break;
      }
      case OpCode::kNegI: {
        const VReg& a = vregs_[in.a];
        d.null = a.null;
        d.i.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (a.null[r] == 0) d.i[r] = -a.i[r];
        }
        break;
      }
      case OpCode::kNegD: {
        const VReg& a = vregs_[in.a];
        d.null = a.null;
        d.d.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (a.null[r] == 0) d.d[r] = -a.d[r];
        }
        break;
      }
      case OpCode::kNot: {
        const VReg& a = vregs_[in.a];
        d.null = a.null;
        d.b.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (a.null[r] == 0) d.b[r] = a.b[r] != 0 ? 0 : 1;
        }
        break;
      }
      case OpCode::kIsNull: {
        const VReg& a = vregs_[in.a];
        d.null.assign(rows, 0);
        d.b = a.null;
        break;
      }
#define PRISMA_VARITH(FIELD, EXPR_)                          \
  {                                                          \
    const VReg& a = vregs_[in.a];                            \
    const VReg& b = vregs_[in.b];                            \
    d.null.resize(rows);                                     \
    d.FIELD.resize(rows);                                    \
    for (size_t r = 0; r < rows; ++r) {                      \
      const bool n = a.null[r] != 0 || b.null[r] != 0;       \
      d.null[r] = n ? 1 : 0;                                 \
      if (!n) d.FIELD[r] = (EXPR_);                          \
    }                                                        \
    break;                                                   \
  }
      case OpCode::kAddI:
        PRISMA_VARITH(i, a.i[r] + b.i[r])
      case OpCode::kSubI:
        PRISMA_VARITH(i, a.i[r] - b.i[r])
      case OpCode::kMulI:
        PRISMA_VARITH(i, a.i[r] * b.i[r])
      case OpCode::kDivI: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        d.null.resize(rows);
        d.i.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          bool n = a.null[r] != 0 || b.null[r] != 0;
          if (!n && b.i[r] == 0) {
            // Poison the lane so downstream instructions skip it; the
            // recorded error supersedes all of this row's output anyway.
            fail(r, "division by zero");
            n = true;
          }
          d.null[r] = n ? 1 : 0;
          if (!n) d.i[r] = a.i[r] / b.i[r];
        }
        break;
      }
      case OpCode::kModI: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        d.null.resize(rows);
        d.i.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          bool n = a.null[r] != 0 || b.null[r] != 0;
          if (!n && b.i[r] == 0) {
            fail(r, "modulo by zero");
            n = true;
          }
          d.null[r] = n ? 1 : 0;
          if (!n) d.i[r] = a.i[r] % b.i[r];
        }
        break;
      }
      case OpCode::kAddD:
        PRISMA_VARITH(d, a.d[r] + b.d[r])
      case OpCode::kSubD:
        PRISMA_VARITH(d, a.d[r] - b.d[r])
      case OpCode::kMulD:
        PRISMA_VARITH(d, a.d[r] * b.d[r])
      case OpCode::kDivD: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        d.null.resize(rows);
        d.d.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          bool n = a.null[r] != 0 || b.null[r] != 0;
          if (!n && b.d[r] == 0.0) {
            fail(r, "division by zero");
            n = true;
          }
          d.null[r] = n ? 1 : 0;
          if (!n) d.d[r] = a.d[r] / b.d[r];
        }
        break;
      }
      case OpCode::kConcat: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        std::vector<std::string>& slot = vscratch_[in.aux];
        slot.resize(rows);
        d.null.resize(rows);
        d.s.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          const bool n = a.null[r] != 0 || b.null[r] != 0;
          d.null[r] = n ? 1 : 0;
          if (!n) {
            slot[r].assign(*a.s[r]);
            slot[r].append(*b.s[r]);
            d.s[r] = &slot[r];
          }
        }
        break;
      }
      case OpCode::kEqI:
        PRISMA_VARITH(b, a.i[r] == b.i[r])
      case OpCode::kNeI:
        PRISMA_VARITH(b, a.i[r] != b.i[r])
      case OpCode::kLtI:
        PRISMA_VARITH(b, a.i[r] < b.i[r])
      case OpCode::kLeI:
        PRISMA_VARITH(b, a.i[r] <= b.i[r])
      case OpCode::kGtI:
        PRISMA_VARITH(b, a.i[r] > b.i[r])
      case OpCode::kGeI:
        PRISMA_VARITH(b, a.i[r] >= b.i[r])
      case OpCode::kEqD:
        PRISMA_VARITH(b, a.d[r] == b.d[r])
      case OpCode::kNeD:
        PRISMA_VARITH(b, a.d[r] != b.d[r])
      case OpCode::kLtD:
        PRISMA_VARITH(b, a.d[r] < b.d[r])
      case OpCode::kLeD:
        PRISMA_VARITH(b, a.d[r] <= b.d[r])
      case OpCode::kGtD:
        PRISMA_VARITH(b, a.d[r] > b.d[r])
      case OpCode::kGeD:
        PRISMA_VARITH(b, a.d[r] >= b.d[r])
      case OpCode::kEqS:
        PRISMA_VARITH(b, *a.s[r] == *b.s[r])
      case OpCode::kNeS:
        PRISMA_VARITH(b, *a.s[r] != *b.s[r])
      case OpCode::kLtS:
        PRISMA_VARITH(b, *a.s[r] < *b.s[r])
      case OpCode::kLeS:
        PRISMA_VARITH(b, *a.s[r] <= *b.s[r])
      case OpCode::kGtS:
        PRISMA_VARITH(b, *a.s[r] > *b.s[r])
      case OpCode::kGeS:
        PRISMA_VARITH(b, *a.s[r] >= *b.s[r])
      case OpCode::kEqB:
        PRISMA_VARITH(b, a.b[r] == b.b[r])
      case OpCode::kNeB:
        PRISMA_VARITH(b, a.b[r] != b.b[r])
#undef PRISMA_VARITH
      case OpCode::kAnd: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        d.null.resize(rows);
        d.b.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          // Kleene: false dominates NULL.
          if ((a.null[r] == 0 && a.b[r] == 0) ||
              (b.null[r] == 0 && b.b[r] == 0)) {
            d.null[r] = 0;
            d.b[r] = 0;
          } else if (a.null[r] != 0 || b.null[r] != 0) {
            d.null[r] = 1;
          } else {
            d.null[r] = 0;
            d.b[r] = 1;
          }
        }
        break;
      }
      case OpCode::kOr: {
        const VReg& a = vregs_[in.a];
        const VReg& b = vregs_[in.b];
        d.null.resize(rows);
        d.b.resize(rows);
        for (size_t r = 0; r < rows; ++r) {
          // Kleene: true dominates NULL.
          if ((a.null[r] == 0 && a.b[r] != 0) ||
              (b.null[r] == 0 && b.b[r] != 0)) {
            d.null[r] = 0;
            d.b[r] = 1;
          } else if (a.null[r] != 0 || b.null[r] != 0) {
            d.null[r] = 1;
          } else {
            d.null[r] = 0;
            d.b[r] = 0;
          }
        }
        break;
      }
    }
  }
  if (fail_row != SIZE_MAX) return InvalidArgumentError(fail_msg);
  return Status::OK();
}

StatusOr<ColumnBatch::Column> CompiledExpr::EvalBatch(
    const ColumnBatch& batch) const {
  return EvalBatch(batch.Views(), batch.num_rows());
}

StatusOr<ColumnBatch::Column> CompiledExpr::EvalBatch(
    std::span<const ColumnView> columns, size_t rows) const {
  RETURN_IF_ERROR(RunBatch(columns, rows));
  const VReg& res = vregs_[result_reg_];
  ColumnBatch::Column col;
  col.type = result_type_;
  if (result_type_ == DataType::kNull) {
    col.nulls.assign(rows, 1);
    return col;
  }
  col.nulls = res.null;
  switch (result_type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      col.bools.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        col.bools[r] = res.null[r] == 0 ? res.b[r] : 0;
      }
      break;
    case DataType::kInt64:
      col.ints.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        col.ints[r] = res.null[r] == 0 ? res.i[r] : 0;
      }
      break;
    case DataType::kDouble:
      col.doubles.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        col.doubles[r] = res.null[r] == 0 ? res.d[r] : 0.0;
      }
      break;
    case DataType::kString:
      col.strings.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        if (res.null[r] == 0) col.strings[r] = *res.s[r];
      }
      break;
  }
  return col;
}

Status CompiledExpr::EvalPredicateBatch(const ColumnBatch& batch,
                                        std::vector<uint8_t>* keep) const {
  return EvalPredicateBatch(batch.Views(), batch.num_rows(), keep);
}

Status CompiledExpr::EvalPredicateBatch(std::span<const ColumnView> columns,
                                        size_t rows,
                                        std::vector<uint8_t>* keep) const {
  RETURN_IF_ERROR(RunBatch(columns, rows));
  keep->assign(rows, 0);
  if (result_type_ != DataType::kBool) return Status::OK();
  const VReg& res = vregs_[result_reg_];
  for (size_t r = 0; r < rows; ++r) {
    (*keep)[r] = (res.null[r] == 0 && res.b[r] != 0) ? 1 : 0;
  }
  return Status::OK();
}

StatusOr<Value> CompiledExpr::Eval(const Tuple& tuple) const {
  RETURN_IF_ERROR(Run(tuple));
  const Reg& r = regs_[result_reg_];
  if (r.null) return Value::Null();
  switch (result_type_) {
    case DataType::kBool:
      return Value::Bool(r.b);
    case DataType::kInt64:
      return Value::Int(r.i);
    case DataType::kDouble:
      return Value::Double(r.d);
    case DataType::kString:
      return Value::String(*r.s);
    case DataType::kNull:
      return Value::Null();
  }
  return InternalError("bad result type");
}

StatusOr<bool> CompiledExpr::EvalPredicate(const Tuple& tuple) const {
  RETURN_IF_ERROR(Run(tuple));
  const Reg& r = regs_[result_reg_];
  return !r.null && result_type_ == DataType::kBool && r.b;
}

std::string CompiledExpr::ToString() const {
  std::string out;
  for (const Instruction& in : code_) {
    out += StrFormat("r%u = %s r%u r%u aux=%u", in.dst, OpName(in.op), in.a,
                     in.b, in.aux);
    if (in.op == OpCode::kConst) {
      out += " ; " + constants_[in.aux].ToString();
    }
    out += "\n";
  }
  out += StrFormat("result: r%u (%s)\n", result_reg_,
                   DataTypeName(result_type_));
  return out;
}

}  // namespace prisma::exec
