#include "base/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "base/error.hpp"

namespace mgpusw::base {

namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "bool";
    case 4: return "choice";
    default: return "string";
  }
}

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const std::string& choice : choices) {
    if (!out.empty()) out += "|";
    out += choice;
  }
  return out;
}

}  // namespace

void FlagSet::add_int(const std::string& name, std::int64_t default_value,
                      const std::string& help) {
  Flag flag{Kind::kInt, help, std::to_string(default_value),
            std::to_string(default_value), {}};
  flags_.emplace(name, std::move(flag));
}

void FlagSet::add_double(const std::string& name, double default_value,
                         const std::string& help) {
  std::ostringstream os;
  os << default_value;
  Flag flag{Kind::kDouble, help, os.str(), os.str(), {}};
  flags_.emplace(name, std::move(flag));
}

void FlagSet::add_bool(const std::string& name, bool default_value,
                       const std::string& help) {
  const char* text = default_value ? "true" : "false";
  Flag flag{Kind::kBool, help, text, text, {}};
  flags_.emplace(name, std::move(flag));
}

void FlagSet::add_string(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  Flag flag{Kind::kString, help, default_value, default_value, {}};
  flags_.emplace(name, std::move(flag));
}

void FlagSet::add_choice(const std::string& name,
                         const std::string& default_value,
                         std::vector<std::string> choices,
                         const std::string& help) {
  MGPUSW_REQUIRE(!choices.empty(), "flag --" << name << " needs choices");
  const bool default_ok =
      std::find(choices.begin(), choices.end(), default_value) !=
      choices.end();
  MGPUSW_REQUIRE(default_ok, "flag --" << name << ": default '"
                                       << default_value
                                       << "' is not among its choices");
  Flag flag{Kind::kChoice, help, default_value, default_value,
            std::move(choices)};
  flags_.emplace(name, std::move(flag));
}

bool FlagSet::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw InvalidArgument("unknown flag --" + name + "\n" + usage());
    }
    if (!has_value) {
      if (it->second.kind == Kind::kBool) {
        value = "true";  // bare --flag enables a boolean
      } else {
        if (i + 1 >= argc) {
          throw InvalidArgument("flag --" + name + " requires a value");
        }
        value = argv[++i];
      }
    }
    if (it->second.kind == Kind::kChoice) {
      const auto& choices = it->second.choices;
      if (std::find(choices.begin(), choices.end(), value) ==
          choices.end()) {
        throw InvalidArgument("flag --" + name + ": '" + value +
                              "' is not one of " + join_choices(choices));
      }
    }
    it->second.value = std::move(value);
  }
  return true;
}

const FlagSet::Flag& FlagSet::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  MGPUSW_REQUIRE(it != flags_.end(), "flag --" << name << " not registered");
  MGPUSW_REQUIRE(it->second.kind == kind,
                 "flag --" << name << " is not of type "
                           << kind_name(static_cast<int>(kind)));
  return it->second;
}

std::int64_t FlagSet::get_int(const std::string& name) const {
  const Flag& flag = find(name, Kind::kInt);
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(flag.value, &pos);
    if (pos != flag.value.size()) throw std::invalid_argument(flag.value);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("flag --" + name + ": '" + flag.value +
                          "' is not an integer");
  }
}

double FlagSet::get_double(const std::string& name) const {
  const Flag& flag = find(name, Kind::kDouble);
  try {
    std::size_t pos = 0;
    const double v = std::stod(flag.value, &pos);
    if (pos != flag.value.size()) throw std::invalid_argument(flag.value);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("flag --" + name + ": '" + flag.value +
                          "' is not a number");
  }
}

bool FlagSet::get_bool(const std::string& name) const {
  const Flag& flag = find(name, Kind::kBool);
  if (flag.value == "true" || flag.value == "1" || flag.value == "yes") {
    return true;
  }
  if (flag.value == "false" || flag.value == "0" || flag.value == "no") {
    return false;
  }
  throw InvalidArgument("flag --" + name + ": '" + flag.value +
                        "' is not a boolean");
}

const std::string& FlagSet::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  MGPUSW_REQUIRE(it != flags_.end(), "flag --" << name << " not registered");
  MGPUSW_REQUIRE(
      it->second.kind == Kind::kString || it->second.kind == Kind::kChoice,
      "flag --" << name << " is not of type string");
  return it->second.value;
}

std::string FlagSet::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (";
    if (flag.kind == Kind::kChoice) {
      os << join_choices(flag.choices);
    } else {
      os << kind_name(static_cast<int>(flag.kind));
    }
    os << ", default " << flag.default_value << ")\n      " << flag.help
       << "\n";
  }
  return os.str();
}

}  // namespace mgpusw::base
