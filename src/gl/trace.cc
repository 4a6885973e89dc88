#include "gl/trace.hh"

#include "gl/context.hh"
#include "sim/logging.hh"

namespace attila::gl
{

namespace
{

constexpr char traceMagic[8] = {'A', 'G', 'L', 'T', 'R', 'C', '0',
                                '1'};

template <typename T>
void
writeRaw(std::ofstream& out, const T& v)
{
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T
readRaw(std::ifstream& in)
{
    T v{};
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    return v;
}

} // anonymous namespace

TraceRecorder::TraceRecorder(const std::string& path)
    : _out(path, std::ios::binary)
{
    if (!_out)
        fatal("trace recorder: cannot open '", path, "'");
    _out.write(traceMagic, sizeof(traceMagic));
}

TraceRecorder::~TraceRecorder()
{
    _out.flush();
}

void
TraceRecorder::record(TraceOp op, std::initializer_list<f64> scalars,
                      const u8* blob, std::size_t blob_size,
                      const std::string& text)
{
    writeRaw(_out, static_cast<u16>(op));
    writeRaw(_out, static_cast<u8>(scalars.size()));
    for (f64 s : scalars)
        writeRaw(_out, s);
    writeRaw(_out, static_cast<u32>(blob_size));
    if (blob_size)
        _out.write(reinterpret_cast<const char*>(blob),
                   static_cast<std::streamsize>(blob_size));
    writeRaw(_out, static_cast<u32>(text.size()));
    if (!text.empty())
        _out.write(text.data(),
                   static_cast<std::streamsize>(text.size()));
    ++_records;
    if (op == TraceOp::SwapBuffers)
        ++_frames;
}

TracePlayer::TracePlayer(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("trace player: cannot open '", path, "'");
    const std::streamoff fileSize = in.tellg();
    in.seekg(0);
    char magic[8];
    in.read(magic, 8);
    if (!in || std::memcmp(magic, traceMagic, 8) != 0)
        fatal("trace player: '", path, "' is not an AGL trace");

    for (u64 index = 0;; ++index) {
        const u16 op = readRaw<u16>(in);
        if (!in)
            break;
        auto truncated = [&] {
            fatal("trace player: '", path, "' record ", index,
                  ": truncated");
        };
        if (op >= traceOpCount) {
            fatal("trace player: '", path, "' record ", index,
                  ": unknown op ", op);
        }
        // A length comes straight from the file: bound it by the
        // bytes left before allocating anything.
        auto checkedLength = [&] {
            const u32 length = readRaw<u32>(in);
            if (!in || length > fileSize - in.tellg())
                truncated();
            return length;
        };
        TraceRecord rec;
        rec.op = static_cast<TraceOp>(op);
        const u8 nscalars = readRaw<u8>(in);
        rec.scalars.resize(nscalars);
        for (u8 i = 0; i < nscalars; ++i)
            rec.scalars[i] = readRaw<f64>(in);
        const u32 blob = checkedLength();
        rec.blob.resize(blob);
        if (blob) {
            in.read(reinterpret_cast<char*>(rec.blob.data()), blob);
        }
        const u32 text = checkedLength();
        rec.text.resize(text);
        if (text)
            in.read(rec.text.data(), text);
        if (!in)
            truncated();
        if (rec.op == TraceOp::SwapBuffers)
            ++_frames;
        _records.push_back(std::move(rec));
    }
}

void
TracePlayer::play(Context& ctx, u32 first_frame,
                  u32 last_frame) const
{
    u32 frame = 0;
    for (const TraceRecord& rec : _records) {
        if (frame >= last_frame)
            return;
        const bool hotStart = frame < first_frame;
        if (hotStart) {
            // Hot start (paper §4): skip draw commands, clears and
            // swaps; apply state changes and buffer writes only.
            switch (rec.op) {
              case TraceOp::DrawArrays:
              case TraceOp::DrawElements:
              case TraceOp::Clear:
                continue;
              case TraceOp::SwapBuffers:
                ++frame;
                continue;
              default:
                break;
            }
        }
        if (rec.op == TraceOp::SwapBuffers)
            ++frame;
        apply(ctx, rec);
    }
}

void
TracePlayer::apply(Context& ctx, const TraceRecord& rec) const
{
    const auto& s = rec.scalars;
    auto u = [&](u32 i) { return static_cast<u32>(s.at(i)); };
    auto f = [&](u32 i) { return static_cast<f32>(s.at(i)); };
    auto vec = [&](u32 i) {
        return emu::Vec4(f(i), f(i + 1), f(i + 2), f(i + 3));
    };

    switch (rec.op) {
      case TraceOp::ClearColorVal:
        ctx.clearColor(f(0), f(1), f(2), f(3));
        break;
      case TraceOp::ClearDepthVal:
        ctx.clearDepth(f(0));
        break;
      case TraceOp::ClearStencilVal:
        ctx.clearStencil(static_cast<u8>(u(0)));
        break;
      case TraceOp::Clear:
        ctx.clear(u(0));
        break;
      case TraceOp::SwapBuffers:
        ctx.swapBuffers();
        break;
      case TraceOp::Viewport:
        ctx.viewport(static_cast<s32>(s.at(0)),
                     static_cast<s32>(s.at(1)), u(2), u(3));
        break;
      case TraceOp::Enable:
        ctx.enable(static_cast<Cap>(u(0)));
        break;
      case TraceOp::Disable:
        ctx.disable(static_cast<Cap>(u(0)));
        break;
      case TraceOp::DepthFunc:
        ctx.depthFunc(static_cast<emu::CompareFunc>(u(0)));
        break;
      case TraceOp::DepthMask:
        ctx.depthMask(u(0) != 0);
        break;
      case TraceOp::StencilFuncCall:
        ctx.stencilFunc(static_cast<emu::CompareFunc>(u(0)),
                        static_cast<u8>(u(1)),
                        static_cast<u8>(u(2)));
        break;
      case TraceOp::StencilOpCall:
        ctx.stencilOp(static_cast<emu::StencilOp>(u(0)),
                      static_cast<emu::StencilOp>(u(1)),
                      static_cast<emu::StencilOp>(u(2)));
        break;
      case TraceOp::StencilMask:
        ctx.stencilMask(static_cast<u8>(u(0)));
        break;
      case TraceOp::StencilFuncBackCall:
        ctx.stencilFuncBack(static_cast<emu::CompareFunc>(u(0)),
                            static_cast<u8>(u(1)),
                            static_cast<u8>(u(2)));
        break;
      case TraceOp::StencilOpBackCall:
        ctx.stencilOpBack(static_cast<emu::StencilOp>(u(0)),
                          static_cast<emu::StencilOp>(u(1)),
                          static_cast<emu::StencilOp>(u(2)));
        break;
      case TraceOp::BlendFuncCall:
        ctx.blendFunc(static_cast<emu::BlendFactor>(u(0)),
                      static_cast<emu::BlendFactor>(u(1)));
        break;
      case TraceOp::BlendEquationCall:
        ctx.blendEquation(static_cast<emu::BlendEquation>(u(0)));
        break;
      case TraceOp::BlendColorCall:
        ctx.blendColor(f(0), f(1), f(2), f(3));
        break;
      case TraceOp::ColorMask:
        ctx.colorMask(u(0) != 0, u(1) != 0, u(2) != 0, u(3) != 0);
        break;
      case TraceOp::AlphaFuncCall:
        ctx.alphaFunc(static_cast<emu::CompareFunc>(u(0)), f(1));
        break;
      case TraceOp::Scissor:
        ctx.scissor(static_cast<s32>(s.at(0)),
                    static_cast<s32>(s.at(1)), u(2), u(3));
        break;
      case TraceOp::CullFaceMode:
        ctx.cullFace(static_cast<gpu::CullMode>(u(0)));
        break;
      case TraceOp::FrontFace:
        ctx.frontFaceCcw(u(0) != 0);
        break;
      case TraceOp::MatrixModeCall:
        ctx.matrixMode(static_cast<MatrixMode>(u(0)));
        break;
      case TraceOp::LoadIdentity:
        ctx.loadIdentity();
        break;
      case TraceOp::LoadMatrix:
      case TraceOp::MultMatrix: {
        emu::Mat4 m;
        for (u32 i = 0; i < 4; ++i)
            for (u32 j = 0; j < 4; ++j)
                m.m[i][j] = f(i * 4 + j);
        if (rec.op == TraceOp::LoadMatrix)
            ctx.loadMatrix(m);
        else
            ctx.multMatrix(m);
        break;
      }
      case TraceOp::PushMatrix:
        ctx.pushMatrix();
        break;
      case TraceOp::PopMatrix:
        ctx.popMatrix();
        break;
      case TraceOp::GenBuffer:
        ctx.genBuffer();
        break;
      case TraceOp::BufferData:
        ctx.bufferData(u(0), rec.blob);
        break;
      case TraceOp::DeleteBuffer:
        ctx.deleteBuffer(u(0));
        break;
      case TraceOp::AttribPointer:
        ctx.attribPointer(u(0), u(1),
                          static_cast<gpu::StreamFormat>(u(2)),
                          u(3), u(4));
        break;
      case TraceOp::DisableAttrib:
        ctx.disableAttrib(u(0));
        break;
      case TraceOp::GenTexture:
        ctx.genTexture();
        break;
      case TraceOp::BindTexture:
        ctx.bindTexture(u(0));
        break;
      case TraceOp::ActiveTexture:
        ctx.activeTexture(u(0));
        break;
      case TraceOp::TexImage2D:
        ctx.texImage2D(u(0), static_cast<emu::TexFormat>(u(1)),
                       u(2), u(3), rec.blob);
        break;
      case TraceOp::TexImageCube:
        ctx.texImageCube(u(0), u(1),
                         static_cast<emu::TexFormat>(u(2)), u(3),
                         u(4), rec.blob);
        break;
      case TraceOp::TexFilter:
        ctx.texFilter(static_cast<emu::MinFilter>(u(0)),
                      u(1) != 0);
        break;
      case TraceOp::TexWrap:
        ctx.texWrap(static_cast<emu::WrapMode>(u(0)),
                    static_cast<emu::WrapMode>(u(1)));
        break;
      case TraceOp::TexMaxAniso:
        ctx.texMaxAnisotropy(u(0));
        break;
      case TraceOp::GenerateMipmaps:
        ctx.generateMipmaps();
        break;
      case TraceOp::TexEnv:
        ctx.texEnv(static_cast<TexEnvMode>(u(0)));
        break;
      case TraceOp::DeleteTexture:
        ctx.deleteTexture(u(0));
        break;
      case TraceOp::GenProgram:
        ctx.genProgram();
        break;
      case TraceOp::ProgramString:
        ctx.programString(u(0), rec.text);
        break;
      case TraceOp::BindProgramVertex:
        ctx.bindProgramVertex(u(0));
        break;
      case TraceOp::BindProgramFragment:
        ctx.bindProgramFragment(u(0));
        break;
      case TraceOp::ProgramEnvParam:
        ctx.programEnvParam(static_cast<emu::ShaderTarget>(u(0)),
                            u(1), vec(2));
        break;
      case TraceOp::ProgramLocalParam:
        ctx.programLocalParam(static_cast<emu::ShaderTarget>(u(0)),
                              u(1), vec(2));
        break;
      case TraceOp::DrawArrays:
        ctx.drawArrays(static_cast<gpu::Primitive>(u(0)), u(1),
                       u(2));
        break;
      case TraceOp::DrawElements:
        ctx.drawElements(static_cast<gpu::Primitive>(u(0)), u(1),
                         u(2), u(3), u(4) != 0);
        break;
      case TraceOp::Light: {
        LightState light;
        light.enabled = u(1) != 0;
        light.direction = vec(2);
        light.diffuse = vec(6);
        light.ambient = vec(10);
        ctx.light(u(0), light);
        break;
      }
      case TraceOp::Material: {
        MaterialState material;
        material.diffuse = vec(0);
        material.ambient = vec(4);
        ctx.material(material);
        break;
      }
      case TraceOp::SceneAmbient:
        ctx.sceneAmbient(f(0), f(1), f(2), f(3));
        break;
      case TraceOp::FogCall: {
        FogState fogState;
        fogState.mode = static_cast<FogMode>(u(0));
        fogState.color = vec(1);
        fogState.density = f(5);
        fogState.start = f(6);
        fogState.end = f(7);
        ctx.fog(fogState);
        break;
      }
      case TraceOp::Color:
        ctx.color(f(0), f(1), f(2), f(3));
        break;
    }
}

} // namespace attila::gl
