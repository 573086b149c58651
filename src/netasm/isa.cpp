#include "netasm/isa.h"

#include <sstream>

#include "util/status.h"

namespace snap {
namespace netasm {

std::string to_string(const Instr& instr) {
  std::ostringstream os;
  std::visit(
      [&](const auto& i) {
        using T = std::decay_t<decltype(i)>;
        if constexpr (std::is_same_v<T, IBranchFieldValue>) {
          os << "BEQ   " << field_name(i.field) << ", " << i.value;
          if (i.prefix_len != kExactMatch) os << "/" << i.prefix_len;
          os << " -> " << i.on_true << " : " << i.on_false;
        } else if constexpr (std::is_same_v<T, IBranchFieldField>) {
          os << "BFF   " << field_name(i.f1) << ", " << field_name(i.f2)
             << " -> " << i.on_true << " : " << i.on_false;
        } else if constexpr (std::is_same_v<T, IBranchState>) {
          os << "BST   " << state_var_name(i.var) << "[" << i.index.to_string()
             << "] = " << i.value.to_string() << " -> " << i.on_true << " : "
             << i.on_false;
        } else if constexpr (std::is_same_v<T, IEscape>) {
          os << "ESC   node=" << i.node << " var=" << state_var_name(i.var);
        } else if constexpr (std::is_same_v<T, IStateSet>) {
          os << "STST  " << state_var_name(i.var) << "[" << i.index.to_string()
             << "] <- " << i.value.to_string();
        } else if constexpr (std::is_same_v<T, IStateInc>) {
          os << "STINC " << state_var_name(i.var) << "["
             << i.index.to_string() << "]";
        } else if constexpr (std::is_same_v<T, IStateDec>) {
          os << "STDEC " << state_var_name(i.var) << "["
             << i.index.to_string() << "]";
        } else if constexpr (std::is_same_v<T, IAtomBegin>) {
          os << "ATOMB";
        } else if constexpr (std::is_same_v<T, IAtomEnd>) {
          os << "ATOME";
        } else {
          static_assert(std::is_same_v<T, ILeafDone>);
          os << "LEAF  " << i.leaf;
        }
      },
      instr);
  return os.str();
}

std::string Program::disassemble() const {
  std::ostringstream os;
  // Invert the entry table for labeling.
  std::map<Pc, std::vector<XfddId>> labels;
  for (const auto& [node, pc] : entry) labels[pc].push_back(node);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    auto it = labels.find(static_cast<Pc>(pc));
    if (it != labels.end()) {
      for (XfddId n : it->second) os << "n" << n << ":\n";
    }
    os << "  " << pc << ": " << to_string(code[pc]) << "\n";
  }
  return os.str();
}

}  // namespace netasm
}  // namespace snap
