from qortho.cli import process_main

if __name__ == "__main__":
    process_main()
