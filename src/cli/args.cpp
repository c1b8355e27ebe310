#include "cli/args.h"

#include <charconv>

#include "stats/expect.h"

namespace gplus::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  GPLUS_EXPECT(!options_.contains(name), "duplicate option: " + name);
  options_[name] = {default_value, default_value, help, /*is_flag=*/false};
  declaration_order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  GPLUS_EXPECT(!options_.contains(name), "duplicate flag: " + name);
  options_[name] = {"false", "false", help, /*is_flag=*/true};
  declaration_order_.push_back(name);
}

std::optional<std::string> ArgParser::parse(
    const std::vector<std::string>& args) {
  for (auto& [name, option] : options_) option.value = option.default_value;
  positional_.clear();

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = options_.find(name);
    if (it == options_.end()) return "unknown option: --" + name;

    if (it->second.is_flag) {
      if (inline_value) return "flag --" + name + " does not take a value";
      it->second.value = "true";
      continue;
    }
    if (inline_value) {
      it->second.value = *inline_value;
    } else {
      if (i + 1 >= args.size()) return "option --" + name + " needs a value";
      it->second.value = args[++i];
    }
  }
  return std::nullopt;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = options_.find(name);
  GPLUS_EXPECT(it != options_.end(), "undeclared option: " + name);
  return it->second.value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

std::uint64_t ArgParser::get_u64(const std::string& name) const {
  const std::string& text = get(name);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  GPLUS_EXPECT(ec == std::errc{} && ptr == text.data() + text.size(),
               "option --" + name + " is not an integer: " + text);
  return value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& text = get(name);
  GPLUS_EXPECT(!text.empty(), "option --" + name + " is empty");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  GPLUS_EXPECT(end == text.c_str() + text.size(),
               "option --" + name + " is not a number: " + text);
  return value;
}

std::string ArgParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\noptions:\n";
  for (const auto& name : declaration_order_) {
    const Option& option = options_.at(name);
    out += "  --" + name;
    if (!option.is_flag) out += " <value>";
    out += "\n      " + option.help;
    if (!option.is_flag && !option.default_value.empty()) {
      out += " (default: " + option.default_value + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace gplus::cli
