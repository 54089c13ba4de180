#include "flow/compiled_unit.hpp"

#include <array>
#include <optional>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"

namespace zolcsim::flow {

std::string unit_label(std::string_view kernel,
                       codegen::MachineKind machine) {
  return std::string(kernel) + " (" +
         std::string(codegen::machine_name(machine)) + ")";
}

std::string CompileSpec::key() const {
  // Every field that can change the compile output participates; the env's
  // memory map and sizing feed the KIR builder and data layout.
  std::string k = kernel;
  k += '|';
  k += codegen::machine_name(machine);
  k += '|';
  k += geometry.label();
  k += '|';
  k += hex32(env.code_base);
  k += ',';
  k += hex32(env.in_base);
  k += ',';
  k += hex32(env.in2_base);
  k += ',';
  k += hex32(env.out_base);
  k += ',';
  k += hex32(env.aux_base);
  k += ',';
  k += std::to_string(env.scale);
  k += ',';
  k += hex32(env.seed);
  return k;
}

Result<CompiledUnit> CompiledUnit::compile(const CompileSpec& spec) {
  const kernels::Kernel* kernel = kernels::find_kernel(spec.kernel);
  if (kernel == nullptr) {
    return Error{ErrorCode::kUnknownKernel,
                 "unknown kernel '" + spec.kernel + "'"};
  }
  return compile(*kernel, spec);
}

Result<CompiledUnit> CompiledUnit::compile(const kernels::Kernel& kernel,
                                           const CompileSpec& spec) {
  const auto frame = [&] { return unit_label(kernel.name(), spec.machine); };
  if (!spec.geometry.valid()) {
    return Error{ErrorCode::kBadConfig,
                 "invalid ZOLC geometry " + spec.geometry.label()}
        .with_context(frame());
  }

  auto lowered = codegen::lower(kernel.build(spec.env), spec.machine,
                                spec.env.code_base, spec.geometry);
  if (!lowered.ok()) {
    return std::move(lowered).error().with_context(frame() + ": lowering");
  }
  codegen::Program program = std::move(lowered).value();

  // Post-link analysis metadata rides with the unit: which counted loops a
  // binary-level scan would still recover from the lowered code.
  cfg::ScanReport scan = cfg::scan_for_micro_loops(
      program.code, program.base,
      cfg::ScanOptions::for_geometry(spec.geometry));

  CompileSpec stored = spec;
  stored.kernel = std::string(kernel.name());
  return CompiledUnit(kernel, std::move(stored), std::move(program),
                      std::move(scan));
}

namespace {

/// One recovered ZOLC table write: which table, which slot, what payload.
struct TableWrite {
  std::string_view op;
  std::uint8_t index = 0;
  std::uint32_t payload = 0;
};

/// Recovers the table image from the init prologue without re-simulating:
/// the lowering materializes every payload as a fixed lui/ori pair into the
/// scratch register, so tracking just those two opcodes reconstructs the
/// value each zolw.* writes.
std::vector<TableWrite> collect_table_writes(const codegen::Program& program) {
  std::vector<TableWrite> writes;
  std::array<std::optional<std::uint32_t>, 32> known{};
  for (const isa::Instruction& instr : program.code) {
    const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
    if (instr.op == isa::Opcode::kLui) {
      known[instr.rt] = static_cast<std::uint32_t>(instr.imm) << 16;
    } else if (instr.op == isa::Opcode::kOri && instr.rs == instr.rt &&
               known[instr.rs]) {
      known[instr.rt] =
          *known[instr.rs] | (static_cast<std::uint32_t>(instr.imm) & 0xFFFFu);
    } else if (info.format == isa::Format::kZolcWrite &&
               starts_with(info.mnemonic, "zolw")) {
      if (known[instr.rs]) {
        writes.push_back(TableWrite{info.mnemonic, instr.zidx,
                                    *known[instr.rs]});
      }
    } else if (const auto dest = isa::dest_reg(instr)) {
      known[*dest] = std::nullopt;  // any other producer spoils the tracking
    }
  }
  return writes;
}

}  // namespace

std::shared_ptr<const mem::Memory> CompiledUnit::prepared_image() const {
  const std::lock_guard<std::mutex> lock(image_slot_->mutex);
  if (!image_slot_->image) {
    auto image = std::make_shared<mem::Memory>();
    program_.load_into(*image);
    kernel_->setup(spec_.env, *image);
    image->reset_stats();  // preparation writes are not run statistics
    image_slot_->image = std::move(image);
  }
  return image_slot_->image;
}

std::string CompiledUnit::disassembly() const {
  std::string out;
  std::uint32_t pc = program_.base;
  for (const isa::Instruction& instr : program_.code) {
    out += hex32(pc);
    out += "  ";
    out += isa::disassemble(instr, pc);
    out += '\n';
    pc += 4;
  }
  return out;
}

std::string CompiledUnit::to_json() const {
  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines)
      .member("kernel", spec_.kernel)
      .member("machine", codegen::machine_name(spec_.machine))
      .member("geometry", spec_.geometry.label());
  w.key("program")
      .begin_object(Layout::kLines)
      .member("base", hex32(program_.base))
      .member("init_instructions", program_.init_instructions)
      .member("hw_loops", program_.hw_loop_count)
      .member("sw_loops", program_.sw_loop_count)
      .key("notes")
      .begin_array();
  for (const std::string& note : program_.notes) w.value(note);
  w.end().key("words").begin_array().wrap(8);
  for (const isa::Instruction& instr : program_.code) {
    w.value(hex32(isa::encode(instr)));
  }
  w.end().end();

  w.key("tables").begin_array(Layout::kLines);
  for (const TableWrite& write : collect_table_writes(program_)) {
    w.begin_object()
        .member("op", write.op)
        .member("index", write.index)
        .member("payload", hex32(write.payload))
        .end();
  }
  w.end();

  w.key("scan").begin_object(Layout::kLines);
  w.key("candidates").begin_array(Layout::kLines);
  for (const cfg::MicroPlan& plan : scan_.candidates) {
    w.begin_object()
        .member("depth", plan.depth)
        .member("start_pc", hex32(plan.start_pc))
        .member("end_pc", hex32(plan.end_pc))
        .member("index_reg", plan.index_reg)
        .member("initial", plan.initial)
        .member("final", plan.final)
        .member("step", plan.step)
        .member("cond", static_cast<unsigned>(plan.cond))
        .member("update_index", plan.update_index)
        .member("branch_index", plan.branch_index)
        .end();
  }
  w.end().key("rejected").begin_array(Layout::kLines);
  for (const Error& reason : scan_.rejected) {
    w.begin_object()
        .member("code", error_code_name(reason.code))
        .member("message", reason.message)
        .end();
  }
  return w.end().end().end().take();
}

}  // namespace zolcsim::flow
