#include "cimflow/ir/ir.hpp"

#include <algorithm>
#include <set>

#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"

namespace cimflow::ir {

AffineExpr& AffineExpr::operator+=(const AffineExpr& other) {
  terms.insert(terms.end(), other.terms.begin(), other.terms.end());
  constant += other.constant;
  canonicalize();
  return *this;
}

AffineExpr AffineExpr::scaled(std::int64_t factor) const {
  AffineExpr out;
  out.constant = constant * factor;
  for (const auto& [var, coeff] : terms) {
    if (coeff * factor != 0) out.terms.emplace_back(var, coeff * factor);
  }
  return out;
}

bool AffineExpr::references(const std::string& name) const noexcept {
  return std::any_of(terms.begin(), terms.end(),
                     [&](const auto& t) { return t.first == name; });
}

void AffineExpr::canonicalize() {
  std::map<std::string, std::int64_t> merged;
  for (const auto& [var, coeff] : terms) merged[var] += coeff;
  terms.clear();
  for (const auto& [var, coeff] : merged) {
    if (coeff != 0) terms.emplace_back(var, coeff);
  }
}

std::int64_t AffineExpr::evaluate(const std::map<std::string, std::int64_t>& env) const {
  std::int64_t value = constant;
  for (const auto& [var, coeff] : terms) {
    auto it = env.find(var);
    if (it == env.end()) {
      raise(ErrorCode::kInternal, "AffineExpr::evaluate: unbound variable " + var);
    }
    value += coeff * it->second;
  }
  return value;
}

std::string AffineExpr::to_string() const {
  std::string out;
  for (const auto& [var, coeff] : terms) {
    if (!out.empty()) out += " + ";
    if (coeff == 1) {
      out += var;
    } else {
      out += strprintf("%lld*%s", (long long)coeff, var.c_str());
    }
  }
  if (constant != 0 || out.empty()) {
    if (!out.empty()) out += " + ";
    out += strprintf("%lld", (long long)constant);
  }
  return out;
}

std::int64_t Op::i(const std::string& name) const {
  auto it = attrs.find(name);
  if (it == attrs.end()) {
    raise(ErrorCode::kInternal, "op '" + kind + "' missing int attr '" + name + "'");
  }
  if (const auto* value = std::get_if<std::int64_t>(&it->second)) return *value;
  if (const auto* expr = std::get_if<AffineExpr>(&it->second);
      expr != nullptr && expr->is_constant()) {
    return expr->constant;
  }
  raise(ErrorCode::kInternal, "op '" + kind + "' attr '" + name + "' is not an int");
}

std::int64_t Op::i_or(const std::string& name, std::int64_t fallback) const {
  return has(name) ? i(name) : fallback;
}

const std::string& Op::s(const std::string& name) const {
  auto it = attrs.find(name);
  if (it == attrs.end() || !std::holds_alternative<std::string>(it->second)) {
    raise(ErrorCode::kInternal, "op '" + kind + "' missing string attr '" + name + "'");
  }
  return std::get<std::string>(it->second);
}

const AffineExpr& Op::affine(const std::string& name) const {
  auto it = attrs.find(name);
  if (it == attrs.end() || !std::holds_alternative<AffineExpr>(it->second)) {
    raise(ErrorCode::kInternal, "op '" + kind + "' missing affine attr '" + name + "'");
  }
  return std::get<AffineExpr>(it->second);
}

const std::vector<std::int64_t>& Op::ints(const std::string& name) const {
  auto it = attrs.find(name);
  if (it == attrs.end() || !std::holds_alternative<std::vector<std::int64_t>>(it->second)) {
    raise(ErrorCode::kInternal, "op '" + kind + "' missing int-list attr '" + name + "'");
  }
  return std::get<std::vector<std::int64_t>>(it->second);
}

Op make_for(const std::string& var, std::int64_t lower, std::int64_t upper,
            std::int64_t step) {
  CIMFLOW_CHECK(step > 0, "loop step must be positive");
  Op op("loop.for");
  op.set("var", var).set("lower", lower).set("upper", upper).set("step", step);
  return op;
}

namespace {

std::string attr_to_string(const Attr& attr) {
  if (const auto* value = std::get_if<std::int64_t>(&attr)) {
    return strprintf("%lld", (long long)*value);
  }
  if (const auto* text = std::get_if<std::string>(&attr)) return "\"" + *text + "\"";
  if (const auto* list = std::get_if<std::vector<std::int64_t>>(&attr)) {
    std::string out = "[";
    for (std::size_t i = 0; i < list->size(); ++i) {
      if (i != 0) out += ",";
      out += strprintf("%lld", (long long)(*list)[i]);
    }
    return out + "]";
  }
  std::string out = "(";
  out += std::get<AffineExpr>(attr).to_string();
  out += ')';
  return out;
}

}  // namespace

std::string print(const Op& op, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = pad + op.kind;
  if (op.is_loop()) {
    out += strprintf(" %%%s [%lld, %lld)", op.s("var").c_str(), (long long)op.i("lower"),
                     (long long)op.i("upper"));
    if (op.i("step") != 1) out += strprintf(" step %lld", (long long)op.i("step"));
  } else if (!op.attrs.empty()) {
    out += " {";
    bool first = true;
    for (const auto& [name, attr] : op.attrs) {
      if (!first) out += ", ";
      out += name + "=" + attr_to_string(attr);
      first = false;
    }
    out += "}";
  }
  if (op.body.empty()) return out + "\n";
  out += " {\n";
  for (const Op& child : op.body) out += print(child, indent + 1);
  out += pad + "}\n";
  return out;
}

std::string print(const Func& func) {
  std::string out = "func @" + func.name + " {\n";
  for (const Op& op : func.body) out += print(op, 1);
  out += "}\n";
  return out;
}

std::string print(const Module& module) {
  std::string out = "module @" + module.name + " {\n";
  for (const Func& func : module.funcs) out += print(func);
  out += "}\n";
  return out;
}

namespace {

void verify_ops(const std::vector<Op>& ops, std::set<std::string>& scope) {
  for (const Op& op : ops) {
    for (const auto& [name, attr] : op.attrs) {
      if (const auto* expr = std::get_if<AffineExpr>(&attr)) {
        for (const auto& [var, coeff] : expr->terms) {
          (void)coeff;
          if (scope.count(var) == 0) {
            raise(ErrorCode::kInternal, "op '" + op.kind + "' attr '" + name +
                                            "' references out-of-scope var '" + var + "'");
          }
        }
      }
    }
    if (op.is_loop()) {
      const std::string& var = op.s("var");
      if (scope.count(var) != 0) {
        raise(ErrorCode::kInternal, "loop variable shadowing: " + var);
      }
      if (op.i("upper") < op.i("lower")) {
        raise(ErrorCode::kInternal, "loop with negative trip range: " + var);
      }
      scope.insert(var);
      verify_ops(op.body, scope);
      scope.erase(var);
    } else if (!op.body.empty()) {
      verify_ops(op.body, scope);
    }
  }
}

}  // namespace

void verify(const Func& func) {
  std::set<std::string> scope;
  verify_ops(func.body, scope);
}

void verify(const Module& module) {
  for (const Func& func : module.funcs) verify(func);
}

}  // namespace cimflow::ir
